"""The names the benchmark's tracer patches exist, and it puts them all back.

``perfbench/tracing.py`` wraps public functions at the module boundaries of
``koszul`` by name; a renamed or deleted function breaks the traced benchmark
run, so the library is checked against the tracer here.
"""

import importlib.util
import sys
from pathlib import Path

import koszul.hilbert as hilbert
import koszul.subspaces as subspaces
from koszul.linalg import DEFAULT_PRIMES, PrimeField

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_remove_restore_every_name():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # raises AttributeError on a name that no longer exists
        patched = list(tracer._saved)
        assert patched
        for owner, name, original in patched:
            assert getattr(owner, name) is not original, (owner, name)
        # looked up by name, as the program does: a forced field and the automatic
        # mode alike go through hilbert.rank
        hilbert.w_dim(subspaces.weyman_K(4), 1, PrimeField(DEFAULT_PRIMES[0]))
        assert {span.layer for span in tracer.spans} >= {"subspaces", "hilbert", "linalg.rank"}
        tracer.spans.clear()
        hilbert.w_dim(subspaces.weyman_K(4), 1)
        assert "linalg.rank" in {span.layer for span in tracer.spans}
    finally:
        tracer.remove()
    for owner, name, original in patched:
        assert getattr(owner, name) is original, (owner, name)
