"""The benchmark's reference script still finds every name it calls.

``bench/reference.py`` calls package functions by name (``hjcf``,
``lattice``, ``cover``, ``cli``), so renaming or removing one of them breaks
the script.  Loading it here and running each helper at a toy size turns
that into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

from blowdown.cover import pullback_violations

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def _reference_module():
    """bench/reference.py, loaded by path; it prepends to sys.path, which is put back."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_reference_helpers_at_toy_sizes():
    before = list(sys.path)
    module = _reference_module()
    assert sys.path == before

    # the same attribute paths as the script's main()
    base, decl = module.cycle_with_split_cover(5)
    lifted = module.cover.lift_configuration(base, decl)
    assert len(lifted.curves) == 10 and len(lifted.pairings) == 10
    assert pullback_violations(base, lifted, decl.base_of) == []

    assert module.sweep_band(10, 12) == (4 + 10, 0)  # phi(10) + phi(11) round trips
    assert module.atlas(6) == module.oracles.wahl_pair_count(6) == 11
    lattice, hjcf = module.lattice, module.hjcf
    assert lattice.is_negative_definite(lattice.chain_gram(hjcf.wahl_chain(4, 1)))
