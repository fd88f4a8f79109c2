"""Seeded job lists for the three workloads.

Everything here is plain data built from the seed with `random.Random`
and `fractions.Fraction`; nothing imports the engine, so the job list a
seed produces can be compared across commits.  Each workload is a cycle
of rounds: a round has a fixed composition of job kinds (so medians and
tails do not depend on which mix a seed happens to draw), and the seed
only chooses parameters inside each kind.

Kac-degenerate weights follow the engine's convention d_n = -L_n, so the
Virasoro highest weight is h = -phi(d_0) and the central charge is
c = phi(C).  With c = 13 - 6(t + 1/t),

    h_{r,s}(t) = (r^2-1) t/4 + (s^2-1)/(4t) - (rs-1)/2,

and the Verma module over Vir has a singular vector at level rs (Kac 1979;
Feigin-Fuchs 1984).  `kac_first_level` computes the first degenerate
level of any (h, c) exactly, from the quadratic in h whose roots are
h_{r,s}(t) and h_{r,s}(1/t); its coefficients are rational in c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

LEVELS_ROUNDS = 1
CERTIFY_ROUNDS = 2

# ROADMAP's generation_check reproducer: the engine reports "not generated"
# (exit 1), while every negative word of depth <= 2 applied to the seeds
# spans the truncation.  It runs once per certify round and is never
# filtered out.
REPRODUCER_ARGV = [
    "tensor", "--algebra", "split 2", "--phi-d0", "0", "1", "--psi", "1", "0",
    "--alpha", "1/2", "--beta", "1/3", "--depth", "2", "--window", "-3", "3",
]


@dataclass
class Job:
    """One unit of timed work; `spec` holds everything the gate needs."""

    id: str
    kind: str
    spec: dict = field(default_factory=dict)


def fs(x: Fraction) -> str:
    return str(Fraction(x))


def h_rs(r: int, s: int, t: Fraction) -> Fraction:
    return Fraction(r * r - 1) * t / 4 + Fraction(s * s - 1) / (4 * t) - Fraction(r * s - 1, 2)


def c_of_t(t: Fraction) -> Fraction:
    return 13 - 6 * (t + 1 / t)


def kac_first_level(h: Fraction, c: Fraction, max_level: int) -> int | None:
    """Smallest rs <= max_level with h = h_{r,s}(t) for a root t of c, else None.

    With u = t + 1/t = (13 - c)/6, the pair h_{r,s}(t), h_{r,s}(1/t) are the
    roots of h^2 - S h + P, where S = (a+b)u - 2k and
    P = a^2 + b^2 + ab(u^2 - 2) - k(a+b)u + k^2, for a = (r^2-1)/4,
    b = (s^2-1)/4, k = (rs-1)/2.  Exact over Q for rational (h, c).
    """
    u = (13 - Fraction(c)) / 6
    best = None
    for r in range(1, max_level + 1):
        for s in range(r, max_level // r + 1):
            a = Fraction(r * r - 1, 4)
            b = Fraction(s * s - 1, 4)
            k = Fraction(r * s - 1, 2)
            S = (a + b) * u - 2 * k
            P = a * a + b * b + a * b * (u * u - 2) - k * (a + b) * u + k * k
            if h * h - S * h + P == 0 and (best is None or r * s < best):
                best = r * s
    return best


def _rat(rng: random.Random) -> Fraction:
    """A non-integral rational of small, narrow height: +-n/2 or +-n/3, n <= 7.

    Exact arithmetic costs grow with the bit size of the inputs, so the
    height is held in a narrow band; otherwise the seed, not the engine,
    would set the timings.
    """
    den = rng.choice((2, 3))
    num = rng.choice([n for n in range(1, 8) if n % den])
    return Fraction(rng.choice((-1, 1)) * num, den)


def _generic_hc(rng: random.Random, depth: int) -> tuple[Fraction, Fraction]:
    """A Virasoro weight with no singular vector up to `depth`."""
    while True:
        h, c = _rat(rng), _rat(rng)
        if kac_first_level(h, c, depth) is None:
            return h, c


_KAC_T = [Fraction(2), Fraction(3)]


def _kac_hc(rng: random.Random, lo: int, hi: int) -> tuple[Fraction, Fraction, int, int]:
    """(h, c, r, s) with lo <= rs <= hi and no smaller product degenerate at h."""
    pairs = [(r, s) for r in range(1, hi + 1) for s in range(1, hi + 1) if lo <= r * s <= hi]
    while True:
        r, s = rng.choice(pairs)
        t = rng.choice(_KAC_T)
        h, c = h_rs(r, s, t), c_of_t(t)
        if kac_first_level(h, c, r * s) == r * s:
            return h, c, r, s


# -- levels -----------------------------------------------------------------------

LEVEL_SHAPES = [
    ("trivial", 5),
    ("split 2", 4),
    ("truncated-poly 3", 3),
    ("cyclic-group 3", 3),
]


def _levels_job(rng: random.Random, algebra: str, depth: int, kac: bool, jid: str) -> Job:
    spec = {"algebra": algebra, "depth": depth}
    if algebra in ("trivial", "split 2"):
        # one Virasoro factor per idempotent; V(phi) is their tensor product,
        # so the radical first appears at the smallest degenerate level
        degenerate = [kac] if algebra == "trivial" else [kac, kac and rng.random() < 0.5]
        rng.shuffle(degenerate)
        d0, cc, firsts = [], [], []
        for deg in degenerate:
            if deg:
                h, c, r, s = _kac_hc(rng, 1, depth)
                firsts.append(r * s)
            else:
                h, c = _generic_hc(rng, depth)
            d0.append(-h)
            cc.append(c)
        if firsts:
            first = min(firsts)
            spec["kac"] = {"mode": "first-radical", "first": first, "count": firsts.count(first)}
        else:
            spec["kac"] = {"mode": "generic"}
    elif kac:
        # phi = (c, -h) composed with the character chi of B (evaluation at
        # t = 0, or the augmentation of the group algebra).  phi kills the
        # ideal ker(chi), so V(phi) is the Virasoro irreducible V(c, h).
        # rs >= 2 keeps h != 0: at h = 0 phi vanishes on d_0 and the build
        # costs about half as much, which would let the seed set the timings.
        h, c, r, s = _kac_hc(rng, 2, depth)
        chi = [1, 0, 0] if algebra.startswith("truncated") else [1, 1, 1]
        d0 = [-h * x for x in chi]
        cc = [c * x for x in chi]
        spec["kac"] = {"mode": "virasoro-quotient", "first": r * s}
    else:
        d0 = [_rat(rng) for _ in range(3)]
        cc = [_rat(rng) for _ in range(3)]
        spec["kac"] = None
    spec["d0"] = [fs(x) for x in d0]
    spec["c"] = [fs(x) for x in cc]
    return Job(jid, f"{algebra}/{'kac' if kac else 'generic'}", spec)


def levels_rounds(seed: int) -> list[list[Job]]:
    rounds = []
    for r in range(LEVELS_ROUNDS):
        rng = random.Random(f"levels:{seed}:{r}")
        jobs = [
            _levels_job(rng, algebra, depth, kac, f"levels/r{r}/{algebra}/{'kac' if kac else 'gen'}")
            for algebra, depth in LEVEL_SHAPES
            for kac in (False, True)
        ]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# -- radical ------------------------------------------------------------------------

RADICAL_SHAPES = [("trivial", 8), ("trivial", 9), ("trivial", 10), ("split 2", 5), ("split 2", 6)]


def radical_rounds(seed: int) -> list[list[Job]]:
    """One round of Gram matrices, cycled: every shape at a generic and a Kac weight.

    The matrices are built in set-up by the dense oracle, one oracle per
    weight serving all levels of that weight, so the round is reused rather
    than regenerated.  The Kac weights sit at rs = 4 (nullity 5/7/11 at
    trivial levels 8/9/10 for (2,2)), where elimination still does most of
    its work; rs = 1 would leave almost nothing to eliminate.
    """
    rng = random.Random(f"radical:{seed}")
    jobs = []
    for algebra in ("trivial", "split 2"):
        levels = [lv for name, lv in RADICAL_SHAPES if name == algebra]
        for kac in (False, True):
            if kac:
                h, c, _r, _s = _kac_hc(rng, 4, 4)
            else:
                h, c = _generic_hc(rng, max(levels))
            d0, cc = [-h], [c]
            if algebra == "split 2":
                h2, c2 = _generic_hc(rng, max(levels))
                d0, cc = d0 + [-h2], cc + [c2]
            for level in levels:
                jobs.append(
                    Job(
                        f"radical/{algebra}/L{level}/{'kac' if kac else 'gen'}",
                        f"{algebra}/L{level}",
                        {"algebra": algebra, "level": level, "d0": [fs(x) for x in d0],
                         "c": [fs(x) for x in cc]},
                    )
                )
    rng.shuffle(jobs)
    return [jobs]


# -- certify --------------------------------------------------------------------------


def _arg(x) -> str:
    # argparse reads "-1/2" as an option; the engine's scalar parser ignores spaces
    text = fs(x) if isinstance(x, Fraction) else str(x)
    return " " + text if text.startswith("-") and "/" in text else text


def _args(*parts) -> list[str]:
    """argv from scalars and lists of scalars (a list is one nargs="+" option)."""
    out = []
    for p in parts:
        if isinstance(p, (list, tuple)):
            out.extend(_arg(x) for x in p)
        else:
            out.append(_arg(p))
    return out


def _alpha_beta(rng: random.Random, beta_zero: bool = False) -> tuple[Fraction, Fraction]:
    """alpha, beta with alpha, alpha+beta and alpha-beta all non-integral."""
    while True:
        alpha = _rat(rng)
        beta = Fraction(0) if beta_zero else _rat(rng)
        if (alpha + beta).denominator != 1 and (alpha - beta).denominator != 1:
            return alpha, beta


def _phi(rng: random.Random, algebra: str, depth: int) -> tuple[list, list]:
    if algebra == "trivial":
        h, c = _generic_hc(rng, depth)
        return [-h], [c]
    hs = [_generic_hc(rng, depth) for _ in range(2)]
    return [-h for h, _ in hs], [c for _, c in hs]


def _tensor_spec(algebra, d0, c, psi, alpha, beta, depth, window=None) -> dict:
    spec = {"algebra": algebra, "d0": [fs(x) for x in d0], "c": [fs(x) for x in c],
            "psi": [fs(x) for x in psi], "alpha": fs(alpha), "beta": fs(beta), "depth": depth}
    if window is not None:
        spec["window"] = list(window)
    return spec


def _certify_round(rng: random.Random, r: int, config_dir: str) -> list[Job]:
    jobs = []

    def add(kind, argv, expect, **spec):
        jobs.append(Job(f"certify/r{r}/{kind}", kind, {"argv": argv, "expect": expect, **spec}))

    # intermediate modules: the closure scans make up the tail
    alpha, beta = _rat(rng), _rat(rng)
    add("int-module/irreducible",
        _args("int-module", "--alpha", alpha, "--beta", beta, "--window", -8, 8, "--degree", 4),
        0, irreducible=True)
    alpha, beta = Fraction(rng.randint(-3, 3)), Fraction(rng.choice([0, 1]))
    add("int-module/reducible",
        _args("int-module", "--alpha", alpha, "--beta", beta, "--window", -8, 8, "--degree", 4),
        0, irreducible=False)

    # level tables with the irreducibility scan
    d0, c = _phi(rng, "trivial", 3)
    add("verma/trivial",
        _args("verma", "--phi-d0", d0, "--phi-c", c, "--depth", 3, "--irreducibility"),
        0, algebra="trivial")
    depth = 2
    d0, c = _phi(rng, "split 2", depth)
    add("verma/split2",
        _args("verma", "--algebra", "split 2", "--phi-d0", d0, "--phi-c", c, "--depth", depth,
              "--irreducibility"),
        0, algebra="split 2")

    # generation checks: expected verdict comes from the brute-force span
    depth = 3
    d0, c = _phi(rng, "trivial", depth)
    alpha, beta = _alpha_beta(rng)
    add("tensor/trivial",
        _args("tensor", "--phi-d0", d0, "--phi-c", c, "--psi", 1, "--alpha", alpha, "--beta", beta,
              "--depth", depth, "--window", -3, 3),
        None, tensor=_tensor_spec("trivial", d0, c, [1], alpha, beta, depth, (-3, 3)))
    d0, c = _phi(rng, "split 2", 2)
    psi = rng.choice([[1, 0], [0, 1]])
    alpha, beta = _alpha_beta(rng)
    add("tensor/split2",
        _args("tensor", "--algebra", "split 2", "--phi-d0", d0, "--phi-c", c, "--psi", psi,
              "--alpha", alpha, "--beta", beta, "--depth", 2, "--window", -3, 3),
        None, tensor=_tensor_spec("split 2", d0, c, psi, alpha, beta, 2, (-3, 3)))
    add("tensor/reproducer", list(REPRODUCER_ARGV), None,
        tensor=_tensor_spec("split 2", [0, 1], [0, 0], [1, 0], Fraction(1, 2), Fraction(1, 3), 2,
                            (-3, 3)))

    # probe certificates
    depth = 3
    d0, c = _phi(rng, "trivial", depth)
    alpha, beta = _alpha_beta(rng)
    m = rng.randint(-2, 2)
    add("endo-probe/trivial",
        _args("endo-probe", "--phi-d0", d0, "--phi-c", c, "--psi", 1, "--alpha", alpha,
              "--beta", beta, "--depth", depth, "--m", m, "--k", depth),
        0, tensor=_tensor_spec("trivial", d0, c, [1], alpha, beta, depth))
    d0, c = _phi(rng, "split 2", 2)
    psi = rng.choice([[1, 0], [0, 1]])
    alpha, beta = _alpha_beta(rng)
    add("endo-probe/split2",
        _args("endo-probe", "--algebra", "split 2", "--phi-d0", d0, "--phi-c", c, "--psi", psi,
              "--alpha", alpha, "--beta", beta, "--depth", 2, "--m", 0, "--k", 2),
        0, tensor=_tensor_spec("split 2", d0, c, psi, alpha, beta, 2))
    for case, depth in (("I", 1), ("II", 2)):
        d0, c = _phi(rng, "trivial", depth)
        alpha, beta = _alpha_beta(rng, beta_zero=(case == "II"))
        m = rng.randint(-2, 2)
        add(f"x-probe/{case}",
            _args("x-probe", "--case", case, "--phi-d0", d0, "--phi-c", c, "--psi", 1,
                  "--alpha", alpha, "--beta", beta, "--depth", depth, "--b", 1, "--m", m,
                  "--n", depth),
            0, tensor=_tensor_spec("trivial", d0, c, [1], alpha, beta, depth))
    depth = 3
    x, cc = _rat(rng), [_rat(rng), _rat(rng)]
    alpha, beta = _alpha_beta(rng)
    add("cor31",
        _args("cor31", "--algebra", "split 2", "--phi-d0", 0, x, "--phi-c", cc, "--psi", 1, 0,
              "--alpha", alpha, "--beta", beta, "--depth", depth, "--window", -6, 6, "--b", "e0"),
        0, tensor=_tensor_spec("split 2", [0, x], cc, [1, 0], alpha, beta, depth))
    depth = 1
    d0, c = _phi(rng, "split 2", depth)
    alpha, beta = _alpha_beta(rng)
    add("psi-sep",
        _args("psi-sep", "--algebra", "split 2", "--phi-d0", d0, "--phi-c", c, "--psi1", 1, 0,
              "--psi2", 0, 1, "--alpha", alpha, "--beta", beta, "--depth", depth,
              "--window", -2, 2),
        0, tensor=_tensor_spec("split 2", d0, c, [1, 0], alpha, beta, depth),
        tensor2=_tensor_spec("split 2", d0, c, [0, 1], alpha, beta, depth))
    add("iso-coeffs",
        _args("iso-coeffs", "--A", _rat(rng), "--b1", _rat(rng), "--Q", _rat(rng), "--b2", _rat(rng)),
        0)

    # isomorphism signatures: an integer shift of alpha is isomorphic, a
    # different character is not (exit 1, with a separation certificate)
    d0, c = _phi(rng, "split 2", 1)
    alpha, beta = _alpha_beta(rng)
    shift = rng.choice([-2, -1, 1, 2])
    add("iso-check/shift",
        _args("iso-check", "--algebra", "split 2", "--phi1-d0", d0, "--phi1-c", c, "--psi1", 1, 0,
              "--alpha1", alpha, "--beta1", beta, "--phi2-d0", d0, "--phi2-c", c, "--psi2", 1, 0,
              "--alpha2", alpha + shift, "--beta2", beta),
        0, isomorphic=True)
    add("iso-check/refute",
        _args("iso-check", "--algebra", "split 2", "--phi1-d0", d0, "--phi1-c", c, "--psi1", 1, 0,
              "--alpha1", alpha, "--beta1", beta, "--phi2-d0", d0, "--phi2-c", c, "--psi2", 0, 1,
              "--alpha2", alpha, "--beta2", beta, "--refute"),
        1, isomorphic=False,
        tensor=_tensor_spec("split 2", d0, c, [1, 0], alpha, beta, 1),
        tensor2=_tensor_spec("split 2", d0, c, [0, 1], alpha, beta, 1))

    # batch runs: a seeded config and the bundled demo
    depth = 2
    x = _rat(rng)
    alpha, beta = _alpha_beta(rng)
    config = {
        "algebra": "split 2",
        "phi": {"d0": ["0", fs(x)], "c": ["0", "0"]},
        "psi": ["1", "0"],
        "alpha": fs(alpha),
        "beta": fs(beta),
        "depth": depth,
        "window": [-6, 6],
        "seed": rng.randint(0, 10**6),
        "probes": [
            {"kind": "ladder", "b": "e0"},
            {"kind": "endo", "m": 0, "k": depth},
            {"kind": "iso-identity", "samples": 4},
        ],
    }
    path = f"{config_dir}/certify-r{r}.json"
    add("run/seeded", ["run", path], 0, config=config, config_path=path)
    add("run/cor31-split", ["run", "cor31-split"], 0)
    rng.shuffle(jobs)
    return jobs


def certify_rounds(seed: int, config_dir: str) -> list[list[Job]]:
    return [
        _certify_round(random.Random(f"certify:{seed}:{r}"), r, config_dir)
        for r in range(CERTIFY_ROUNDS)
    ]


def job_rounds(workload: str, seed: int, config_dir: str = ".bench_out/configs") -> list[list[Job]]:
    if workload == "levels":
        return levels_rounds(seed)
    if workload == "radical":
        return radical_rounds(seed)
    if workload == "certify":
        return certify_rounds(seed, config_dir)
    raise ValueError(f"unknown workload {workload!r}")
