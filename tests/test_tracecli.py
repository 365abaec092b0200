"""The traced benchmark rebinds package functions by name; every name it
lists must still resolve, or a rename would only show in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACECLI = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("tracecli", TRACECLI)
    tracecli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecli)
    assert tracecli.WRAPPED
    missing = [f"graphkd.{module}.{attr}" for module, attr, _ in tracecli.WRAPPED
               if not callable(getattr(importlib.import_module(f"graphkd.{module}"),
                                       attr, None))]
    assert missing == []
