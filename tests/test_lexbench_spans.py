"""The benchmark's trace hooks name attributes the package still has.

``lexbench/spans.py`` patches each ``(module, attr)`` it lists for a
traced run; a name deleted from the package would only surface there as
a crash, so this test resolves every one of them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "lexbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("lexbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = load_spans()
    targets = [(module, attr) for module, attr, *_ in spans.SPANNED] + list(spans.COUNTED)
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert targets and not missing
