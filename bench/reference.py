"""Reference figures for bench/README.md, measured on the machine at hand.

    python3 bench/reference.py      # from the root of a checkout; about 2 minutes

Prints one line per figure: one band of the Hirzebruch-Jung round-trip
sweep, the ``chains`` atlas at ``--max-p 400``, ``is_negative_definite`` on
chains of lengths 99, 199 and 399, and ``lift_configuration`` on N = 200 and
400 curves.  Single process, single thread; each figure is timed once.
"""

import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), "src"]

import oracles  # noqa: E402
from blowdown import cli, configuration, cover, hjcf, lattice  # noqa: E402


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def sweep_band(lo: int, hi: int) -> tuple[int, int]:
    count = bad = 0
    for n in range(lo, hi):
        for m in oracles.coprime_residues(n):
            bad += hjcf.hj_eval(hjcf.hj_expand(n, m)) != (n, m)
            count += 1
    return count, bad


def atlas(max_p: int) -> int:
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["chains", "--max-p", str(max_p), "--max-length", str(max_p)])
    return out.getvalue().count("\n") - 1


def cycle_with_split_cover(n: int):
    """A cycle of n (-2)-curves on a surface with pi1 of order 2, and its split lift."""
    ids = [f"C{i:03d}" for i in range(n)]
    curves = {c: configuration.Curve(c, -2) for c in ids}
    pairs = {configuration.pair_key(a, b): 1 for a, b in zip(ids, ids[1:] + ids[:1])}
    ambient = configuration.InvariantSet.from_base(e=12, sigma=-8, pg=0)
    base = configuration.Configuration(curves, pairs, ambient, pi1_order=2)
    decl = cover.SplittingDecl.build(
        {c: (c + "a", c + "b") for c in ids},
        pairings={(a + s, b + s): 1 for a, b in pairs for s in "ab"})
    return base, decl


def main():
    dt, (count, bad) = _timed(sweep_band, 4750, 5000)
    print(f"sweep 4750 <= n < 5000: {count} round trips ({bad} wrong) in {dt:.2f} s, "
          f"{count / dt:,.0f}/s")
    dt, rows = _timed(atlas, 400)
    print(f"atlas --max-p 400: {rows} chains in {dt:.2f} s, {rows / dt:,.0f}/s")
    for length in (99, 199, 399):
        g = lattice.chain_gram(hjcf.wahl_chain(length + 1, 1))
        dt, ok = _timed(lattice.is_negative_definite, g)
        print(f"is_negative_definite, chain length {length}: {dt:.2f} s ({ok})")
    for n in (200, 400):
        base, decl = cycle_with_split_cover(n)
        dt, _ = _timed(cover.lift_configuration, base, decl)
        print(f"lift_configuration, N = {n}: {dt:.2f} s")


if __name__ == "__main__":
    main()
