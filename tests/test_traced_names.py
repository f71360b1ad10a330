"""Every function the benchmark's span tracer wraps still exists in `mig`.

`perfbench/spantrace.py` names the traced functions as (module, attribute)
strings, so a rename in `src/mig` would otherwise surface only when the
benchmark runs.  The file is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert len(traced) >= 20
    for module_name, attr in traced:
        obj = importlib.import_module(f"mig.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)
