"""Installs the benchmark's span wrappers in a traced server process.

The traced run puts this directory first on the servers' ``PYTHONPATH``
and names a span directory in ``PERFBENCH_TRACE_DIR``;
``ClusterSupervisor`` hands both on to its workers, so every server
process records spans.  Without the variable this file does nothing.
"""

import importlib.util
import os

_directory = os.environ.get("PERFBENCH_TRACE_DIR")
if _directory:
    _path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "spans.py")
    _spec = importlib.util.spec_from_file_location("perfbench_spans", _path)
    _spans = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_spans)
    _recorder = _spans.SpanRecorder()
    _recorder.install()
    _recorder.write_at_exit(_directory)
