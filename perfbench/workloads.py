"""The benchmark's workloads: the argv lists it hands to `bessel_tr.cli.main`.

A workload is a list of children; each child is one fresh interpreter that
runs its invocations in order. An invocation is {"argv": [...], "out": bool};
with "out" the runner appends `--out FILE` and reads the file back.

* verify-deep: every verify target at order 14, chi <= 8. The command users
  run, with every layer on its path.
* tables: u-table at chi <= 16, then partition at order 16. The closed
  recursion does most of the work, plus one large PSeries.exp.
* residue: the residue engine on Airy (large tensors) and Bessel (pole,
  small tensors). No closed recursion, series or operators.
* small-many: about 200 small invocations in one interpreter, as the
  acceptance suite runs them, so fixed per-call cost dominates.

The deep workloads do not depend on the seed. For small-many the seed picks
the order of the calls, which ones write with --out, the chi paired with
each verify round and how each round's targets are split. The multiset of
commands, orders and formats is the same for every seed, so the work per
pass barely changes with the seed.
"""

from __future__ import annotations

import random

from tracer import TARGETS

FORMATS = ("json", "csv", "text")

DEEP = {
    "verify-deep": [[["verify", "--order", "14", "--chi-max", "8"]]],
    "tables": [[["u-table", "--chi-max", "16"]], [["partition", "--order", "16"]]],
    "residue": [
        [["omega", "--curve", "airy", "--chi-max", "6"]],
        [["omega", "--curve", "bessel", "--chi-max", "10"]],
    ],
}

WORKLOADS = ("verify-deep", "tables", "residue", "small-many")

# small-many: each template runs once in each format
SMALL_TEMPLATES = (
    [
        ["u-table", "--chi-max", str(chi)] + g_max
        for chi in range(1, 9)
        for g_max in ([], ["--g-max", "1"], ["--g-max", "2"])
    ]
    + [["omega", "--curve", "bessel", "--chi-max", str(chi)] for chi in range(1, 7)]
    + [["omega", "--curve", "airy", "--chi-max", str(chi)] for chi in range(1, 4)]
    + [
        [command, "--order", str(order)]
        for command in ("free-energy", "partition", "wave")
        for order in range(1, 9)
    ]
)
# small-many verify rounds: every target once per (order, m-max), split into
# three invocations; the chi of each round comes from VERIFY_CHIS, shuffled
VERIFY_ROUNDS = tuple((order, m_max) for order in range(5, 9) for m_max in range(1, 4))
VERIFY_CHIS = (3, 4, 5, 6)
VERIFY_SPLITS = 3
OUT_SHARE = 0.3


def small_many(seed: int) -> list[dict]:
    rng = random.Random(seed)
    argvs = [t + ["--format", f] for t in SMALL_TEMPLATES for f in FORMATS]
    chis = list(VERIFY_CHIS) * (len(VERIFY_ROUNDS) // len(VERIFY_CHIS))
    rng.shuffle(chis)
    for (order, m_max), chi in zip(VERIFY_ROUNDS, chis):
        targets = list(TARGETS)
        rng.shuffle(targets)
        cuts = [0] + sorted(rng.sample(range(1, len(targets)), VERIFY_SPLITS - 1)) + [len(targets)]
        for lo, hi in zip(cuts, cuts[1:]):
            argvs.append(
                ["verify", "--targets", ",".join(targets[lo:hi]), "--order", str(order),
                 "--chi-max", str(chi), "--m-max", str(m_max), "--format", rng.choice(FORMATS)]
            )
    rng.shuffle(argvs)
    outs = set(rng.sample(range(len(argvs)), round(OUT_SHARE * len(argvs))))
    return [{"argv": argv, "out": i in outs} for i, argv in enumerate(argvs)]


def build(name: str, seed: int) -> list[list[dict]]:
    """The children of one pass of workload `name`, each a list of invocations."""
    if name == "small-many":
        return [small_many(seed)]
    return [[{"argv": argv, "out": False} for argv in child] for child in DEEP[name]]
