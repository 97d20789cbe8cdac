"""Seeded request streams for the csjack benchmark.

Every request is a `csjack` argv list.  The program sees only these argv
lists; the seed decides which requests are drawn and in which order.  The
request space is finite, so the committed digest table (`digests.json`)
can hold the expected stdout SHA-256 of every request any seed can draw.

Rounds are built so that their cost barely depends on the seed:

* `jack-sym` and `jack-beta`: the deck of (N, lambda) pairs is sorted by
  (N, |lambda|, lambda) and cut into adjacent pairs of near-equal cost; a
  round draws one entry per pair, then a seeded normalization, format, beta
  and full-length variant.  The five fixed ROADMAP cases open every round.
* `verify`: each (suite, max-nvars) cell cycles through its allowed
  max-degree values in a seeded order, one per round.

Stdlib only; it does not import csjack.
"""

from __future__ import annotations

import random

JACK_SYM = "jack-sym"
JACK_BETA = "jack-beta"
VERIFY = "verify"
WORKLOADS = (JACK_SYM, JACK_BETA, VERIFY)

# The fixed cases of the ROADMAP baseline: (lambda, N).
PINNED = (((3, 1), 3), ((4, 2, 1), 4), ((6, 4, 2), 4), ((5, 3, 2, 1), 5), ((3, 2, 1), 6))

# Largest |lambda| drawn per N.  Each cap keeps the creation product of
# every drawn lambda (l(lambda) <= N-1) under about 0.4 s.
MAX_WEIGHT = {3: 12, 4: 8, 5: 6, 6: 5}
NORMALIZATIONS = ("monic", "raw", "stanley")
FORMATS = ("json", "text")
BETAS = ("1/2", "1", "3/2", "2")
PINNED_BETA = "1"
SHIFT_SHARE = 1 / 6  # share of drawn lambdas requested at full length

SUITES = ("commutators", "rodrigues-vs-oracle", "annihilation", "orthogonality", "spectrum-consistency")
# Allowed --max-degree values per (suite, --max-nvars): every combination
# whose single run takes at most about 1.2 s on an idle 2-vCPU host, so a
# verify run fits the benchmark's time budget on a loaded one.  `all`
# repeats the other suites in one process, so it runs at 3 variables only.
VERIFY_GRID = {
    ("commutators", 3): (4, 5, 6),
    ("commutators", 4): (4, 5, 6),
    ("commutators", 5): (4, 5, 6),
    ("rodrigues-vs-oracle", 3): (4, 5, 6),
    ("rodrigues-vs-oracle", 4): (4, 5, 6),
    ("annihilation", 3): (4, 5, 6),
    ("annihilation", 4): (4, 5),
    ("annihilation", 5): (4,),
    ("orthogonality", 3): (4, 5, 6),
    ("orthogonality", 4): (4, 5, 6),
    ("orthogonality", 5): (4,),
    ("spectrum-consistency", 3): (4, 5, 6),
    ("spectrum-consistency", 4): (4, 5, 6),
    ("spectrum-consistency", 5): (4, 5, 6),
    ("all", 3): (4, 5, 6),
}

# Request every run makes during set-up; its wall time is setup_s.
SETUP_ARGV = ("jack", "--lambda", "1", "--nvars", "2")

# Rounds a run makes at least: 75 requests in every workload; verify makes
# most (suite, nvars, degree) more than once.
MIN_ROUNDS = {JACK_SYM: 1, JACK_BETA: 1, VERIFY: 5}
# latency_tail_s is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def partitions(weight: int, max_parts: int):
    """Partitions of weight with at most max_parts parts, lexicographically
    descending."""

    def rec(rest, largest, parts):
        if rest == 0:
            yield ()
            return
        if parts == 0:
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in rec(rest - first, first, parts - 1):
                yield (first,) + tail

    return list(rec(weight, weight, max_parts))


def deck() -> list[tuple[int, tuple[int, ...]]]:
    """Every (N, lambda) a jack workload draws from, in cost order."""
    return [
        (nvars, lam)
        for nvars, cap in sorted(MAX_WEIGHT.items())
        for weight in range(cap + 1)
        for lam in partitions(weight, nvars - 1)
    ]


def _pairs(entries):
    groups: dict[int, list] = {}
    for entry in entries:
        groups.setdefault(entry[0], []).append(entry)
    for group in groups.values():
        for i in range(0, len(group), 2):
            yield group[i : i + 2]


def full_length(lam: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    """lambda + (1, ..., 1) over N parts: reduces back to lambda by the boost."""
    return tuple(x + 1 for x in lam + (0,) * (nvars - len(lam)))


def jack_argv(
    lam: tuple[int, ...],
    nvars: int,
    normalization: str = "monic",
    fmt: str = "json",
    beta: str | None = None,
) -> tuple[str, ...]:
    argv = ["jack", "--lambda", ",".join(map(str, lam)) or "0", "--nvars", str(nvars)]
    argv += ["--normalization", normalization, "--format", fmt]
    if beta is not None:
        argv += ["--beta", beta]
    if len(lam) == nvars:
        argv.append("--allow-shift")
    return tuple(argv)


def verify_argv(suite: str, degree: int, nvars: int) -> tuple[str, ...]:
    return ("verify", "--suite", suite, "--max-degree", str(degree), "--max-nvars", str(nvars))


def pinned(workload: str) -> list[tuple[str, ...]]:
    """The fixed cases as the workload requests them: monic, and for
    jack-beta in text at beta = 1."""
    if workload == JACK_SYM:
        return [jack_argv(lam, nvars) for lam, nvars in PINNED]
    return [jack_argv(lam, nvars, fmt="text", beta=PINNED_BETA) for lam, nvars in PINNED]


def _jack_round(workload: str, rng: random.Random) -> list[tuple[str, ...]]:
    symbolic = workload == JACK_SYM
    drawn = []
    for pair in _pairs(deck()):
        nvars, lam = rng.choice(pair)
        if rng.random() < SHIFT_SHARE:
            lam = full_length(lam, nvars)
        normalization = rng.choice(NORMALIZATIONS)
        if symbolic:
            drawn.append(jack_argv(lam, nvars, normalization, rng.choice(FORMATS)))
        else:
            drawn.append(jack_argv(lam, nvars, normalization, "text", rng.choice(BETAS)))
    rng.shuffle(drawn)
    return pinned(workload) + drawn


def rounds(workload: str, seed: int):
    """Endless stream of request rounds for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload != VERIFY:
        while True:
            yield _jack_round(workload, rng)
    orders = {cell: rng.sample(degrees, len(degrees)) for cell, degrees in VERIFY_GRID.items()}
    index = 0
    while True:
        batch = [
            verify_argv(suite, order[index % len(order)], nvars)
            for (suite, nvars), order in orders.items()
        ]
        rng.shuffle(batch)
        yield batch
        index += 1


def request_space() -> list[tuple[str, ...]]:
    """Every request any seed can draw, plus the set-up request."""
    space = [SETUP_ARGV]
    for nvars, lam in deck():
        for shaped in (lam, full_length(lam, nvars)):
            for normalization in NORMALIZATIONS:
                for fmt in FORMATS:
                    space.append(jack_argv(shaped, nvars, normalization, fmt))
                for beta in BETAS:
                    space.append(jack_argv(shaped, nvars, normalization, "text", beta))
    space += pinned(JACK_SYM) + pinned(JACK_BETA)
    for (suite, nvars), degrees in VERIFY_GRID.items():
        for degree in degrees:
            space.append(verify_argv(suite, degree, nvars))
    return list(dict.fromkeys(space))
