"""The benchmark tracer rebinds localarc names; every one must exist."""

import importlib.util
from pathlib import Path

from localarc import cli, construct, search

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_spanned_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "construct": construct, "search": search}
    missing = [(mod, name) for mod, name, _ in spans.SPANNED
               if not callable(getattr(modules[mod], name, None))]
    assert spans.SPANNED and not missing
