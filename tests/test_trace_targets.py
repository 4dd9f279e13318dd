"""The benchmark tracer wraps package functions by (module, attribute) name.

A re-export it instruments that goes missing would only show when a traced
benchmark run starts, so each of its targets is resolved here.  The tracer
is loaded from its file under its own name, so that it does not shadow the
standard library's `trace` module.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    patches = load_tracer().PATCHES
    assert patches
    missing = [
        f"wellcovered.{mod}.{attr}"
        for mod, attr, *_ in patches
        if not callable(getattr(importlib.import_module(f"wellcovered.{mod}"), attr, None))
    ]
    assert missing == []
