"""Generator of scaled scenarios for the ``scaled_scenario`` workload.

One scenario per seed, far above the bundled sizes:

* an explicit surface with p_g = 0 and pi1 of order 2 (an Enriques surface
  blown up k times, given by its invariants);
* two Wahl chains, C(69, 2) of length 35 and C(199, 2) of length 100; 69 and
  199 are coprime, so the kill rule applies;
* a (-1)-curve witness W1, made by blowing up the point where the far ends
  of the two chains meet;
* a decoy: a second copy of the length-35 chain whose ids sort first, with
  its first curve meeting the middle of the long chain.  ``find_chains``
  embeds the decoy first, cannot then embed the long chain, and must
  backtrack across chains to the real copy;
* distractor (-2)-curves: free cycles and paths, and pendants on interior
  chain curves (never on the second or last-but-one curve, so no pendant
  can complete a second embedding);
* a split double cover of everything, with the four preimage chains
  listed long-first so the cover search needs no backtracking.

Distractor ids sort after the chain curves (``T``, ``X`` against ``D``,
``R``, ``S``): ``find_chains`` tries candidates in id order, so a search
step that succeeds stops before them, while the failing search the decoy
forces scans them all.

The chains, sizes and id scheme are fixed, so a verify costs the same on
every seed; the seed moves the pendants, the distractor clusters and the
K^2 planted after surgery.  Alongside each scenario the generator writes
the facts it planted (``<name>.facts.json``): chain parameters, the valid
embeddings, the final self-intersections and pairings of base and cover,
and the invariants expected after surgery.

Run as ``python3 bench/scaled.py --seed 7 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# (p, q) and the chain entries of C(p, q); oracle_checks.py confirms both.
CHAIN_SHORT = (69, 2, (35, 5) + (2,) * 33)
CHAIN_LONG = (199, 2, (100, 5) + (2,) * 98)
FREE_DISTRACTORS = 120
PENDANTS = 30
DECOY_LINK = 50  # 1-based position on the long chain that the decoy meets


def _ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(1, count + 1)]


def generate(seed: int) -> tuple[str, dict]:
    """Return the scenario text and its facts for one seed."""
    rng = random.Random(seed)
    (p1, q1, short), (p2, q2, long_) = CHAIN_SHORT, CHAIN_LONG
    real, decoy, longc = _ids("R", len(short)), _ids("D", len(short)), _ids("S", len(long_))
    witness = "W1"

    # final self-intersections (after the witness blow-up)
    self_int = {}
    for ids, entries in ((real, short), (decoy, short), (longc, long_)):
        self_int.update((cid, -b) for cid, b in zip(ids, entries))
    pairs: dict[tuple[str, str], int] = {}

    def pair(a: str, b: str):
        pairs[(a, b) if a < b else (b, a)] = 1

    for ids in (real, decoy, longc):
        for a, b in zip(ids, ids[1:]):
            pair(a, b)
    pair(decoy[0], longc[DECOY_LINK - 1])

    pendants = _ids("T", PENDANTS)
    for pid in pendants:
        ids = rng.choice((real, decoy, longc))
        pair(pid, ids[rng.randrange(2, len(ids) - 2)])  # 0-based 2..l-3
        self_int[pid] = -2

    free = _ids("X", FREE_DISTRACTORS)
    i = 0
    while i < len(free):
        size = min(rng.randint(1, 9), len(free) - i)
        cluster = free[i:i + size]
        for a, b in zip(cluster, cluster[1:]):
            pair(a, b)
        if size >= 3 and rng.random() < 0.5:
            pair(cluster[0], cluster[-1])  # an I_n cycle
        self_int.update((cid, -2) for cid in cluster)
        i += size

    # the witness: blow up the meeting point of the two far chain ends
    ends = (real[-1], longc[-1])
    self_int[witness] = -1
    for cid in ends:
        pair(cid, witness)

    total = len(short) + len(long_)
    k2_after = rng.randint(1, 4)
    blowups_before = total - 1 - k2_after  # one more blow-up is in the program
    e0, sigma0 = 12 + blowups_before, -8 - blowups_before
    e_after, sigma_after = e0 + 1 - total, sigma0 - 1 + total
    base_after = {"e": e_after, "sigma": sigma_after,
                  "K2": 2 * e_after + 3 * sigma_after, "b2_plus": 1}
    assert base_after["K2"] == k2_after
    cover_after = {"e": 2 * e_after, "sigma": 2 * sigma_after,
                   "K2": 2 * base_after["K2"], "b2_plus": 3}

    name = f"scaled_{seed}"
    curves = sorted(c for c in self_int if c != witness)
    out = ["# generated by bench/scaled.py; do not edit", "schema = 1", "",
           "[meta]", f"name = {name}",
           "description = scaled benchmark scenario: two Wahl chains of "
           "lengths 35 and 100, a decoy, distractors and a split double cover",
           "", "[surface]", f"e = {e0}", f"sigma = {sigma0}", "pg = 0", "q = 0",
           "pi1_order = 2", "", "[curves]"]
    for cid in curves:
        s = self_int[cid] + (1 if cid in ends else 0)  # before the blow-up
        out.append(f"{cid} = {s} 0 {-2 - s} 0")
    out += ["", "[pairings]"]
    base_pairs = sorted((a, b) for a, b in pairs if witness not in (a, b))
    base_pairs.append(tuple(sorted(ends)))  # consumed by the witness blow-up
    out += [f"{a}.{b} = 1" for a, b in base_pairs]
    out += ["", "[blowups]", f"{witness} = point {ends[0]}, {ends[1]}", "",
            "[chains]",
            f"chain = {','.join(map(str, short))} expect {p1},{q1}",
            f"chain = {','.join(map(str, long_))} expect {p2},{q2}",
            "", "[surgery]"]
    out += [f"{k} = {v}" for k, v in base_after.items()]
    out += ["", "[pi1]", f"witness = {witness}", "expect_order = 2", "", "[cover]"]
    out += [f"split {cid} -> {cid}a, {cid}b" for cid in curves]
    out += [f"pairing {a}{s}.{b}{s} = 1" for a, b in base_pairs for s in "ab"]
    out.append(f"blowup {witness} -> "
               + " ; ".join(f"{witness}{s} = point {ends[0]}{s}, {ends[1]}{s}" for s in "ab"))
    for entries in (long_, long_, short, short):
        out.append(f"chain = {','.join(map(str, entries))}")
    out += [f"expect {k} = {v}" for k, v in cover_after.items()]
    out += ["expect pi1_order = 1", ""]

    cover_self = {f"{c}{s}": v for c, v in self_int.items() for s in "ab"}
    facts = {
        "name": name,
        "seed": seed,
        "chains": [{"p": p, "q": q, "length": len(e), "entries": list(e), "embedding": ids}
                   for p, q, e, ids in ((p1, q1, short, real), (p2, q2, long_, longc))],
        "decoy": decoy,
        "witness": witness,
        "base_final": {"self_int": self_int,
                       "pairings": [[a, b, v] for (a, b), v in sorted(pairs.items())]},
        "cover_final": {"self_int": cover_self,
                        "pairings": [[a + s, b + s, v] for (a, b), v in sorted(pairs.items())
                                     for s in "ab"]},
        "cover_embeddings": [[c + s for c in ids] for ids in (longc, real) for s in "ab"],
        "base_curves": len(curves),
        "base_after": dict(base_after, pi1_order=2),
        "cover_after": dict(cover_after, pi1_order=1),
    }
    return "\n".join(out), facts


def write(seed: int, out_dir: Path) -> tuple[Path, dict]:
    """Write ``scaled_<seed>.scn`` and its facts file into out_dir."""
    text, facts = generate(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{facts['name']}.scn"
    path.write_text(text, encoding="utf-8")
    (out_dir / f"{facts['name']}.facts.json").write_text(
        json.dumps(facts, indent=1, sort_keys=True), encoding="utf-8")
    return path, facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True,
                    help="directory for the scenario and its facts (outside the package)")
    args = ap.parse_args(argv)
    path, _ = write(args.seed, args.out)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
