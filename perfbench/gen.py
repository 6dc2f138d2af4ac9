"""Seeded inputs for the four benchmark workloads.

This module never imports ``punctual``: the program under test cannot
change its own inputs.  Every op is a dict with the ``argv`` handed to
``punctual.cli.main`` and a ``kind`` plus whatever the oracle in
``oracle.py`` needs to check the output without the engine.

Polynomials are dicts {(a, b): int coefficient} for x^a y^b.
"""

from __future__ import annotations

import random

# Copy of punctual.verify.CURATED_CORPUS, kept here so that the inputs do
# not depend on the program.
CURATED_CORPUS = (
    "y - x^2, x^3",
    "x^2 + y^2, x*y",
    "x^2 - y^2, x*y",
    "y^2 - x^3, x^2*y",
    "x^2 + x*y, y^2",
    "x^2 - x, y",
    "x^2 - 1, y^2 - 1",
    "x - 1, y - 2",
    "x^2 - 2*x + 1, x*y + x - y - 1, y^2 + 2*y + 1",
    "y - x^2, x^4",
    "x^2 - y, y^2",
    "x^3 - y, y^3",
    "x^3 - 2*x, y",
    "x^2 - y^3, x*y^2, y^4",
    "x^3, x*y - y^3, y^4",
    "x^2 + y^3, x*y^3, y^5",
    "x^3, x^2*y, x*y^2 - x^2, y^4",
)

# The analyze cases pinned by tests/golden/; their output must match byte
# for byte.
GOLDEN_CASES = {
    "analyze_curvilinear.json": "y, x^5",
    "analyze_single_point.json": "x, y",
    "analyze_square_max_ideal.json": "x^2, x*y, y^2",
}

FP = "Fp:32003"
STAIRCASE_MAX_COLENGTH = 10
FAT_POINT_POWERS = (3, 4, 5, 6)
# (3, 3) comes twice: those pairs set the tail latency of the workload, and
# more of them make it vary less from seed to seed.
DENSE_DEGREES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 3))
DENSE_CASES = tuple(
    (degrees, config)
    for degrees in DENSE_DEGREES
    for config in (("degrevlex", "xy"), ("degrevlex", "yx"), ("lex", "xy"), ("lex", "yx"))
) * 4
SUPPORT_SHAPES = ((1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)) * 3
LARGE_ROOT_OPS = 24
SAMPLES_PER_DEGREE = 60
CENSUS_MAX_N = 38
SWEEP_MAX_N = 32


def partitions(n: int):
    """Partitions of n as weakly decreasing tuples."""

    def descend(remaining, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from descend(remaining - part, part, prefix + (part,))

    yield from descend(n, n, ())


def poly_text(poly: dict) -> str:
    """Render in the ideal grammar: integer coefficients, x, y, ^ and *."""
    chunks = []
    for (a, b), c in sorted(poly.items(), key=lambda t: (-sum(t[0]), -t[0][0])):
        factors = [f"x^{a}" if a > 1 else "x"] * (a > 0) + [f"y^{b}" if b > 1 else "y"] * (b > 0)
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (d, e), k in q.items():
            out[(a + d, b + e)] = out.get((a + d, b + e), 0) + c * k
    return {m: c for m, c in out.items() if c}


def poly_add(p: dict, q: dict, scale: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def compose_univariate(coeffs, linear: dict) -> dict:
    """sum coeffs[i] * linear^i, by Horner."""
    acc: dict = {}
    for c in reversed(coeffs):
        acc = poly_add(poly_mul(acc, linear), {(0, 0): c})
    return acc


def ideal_argv(gens, *options) -> list:
    return ["analyze", "--ideal", ", ".join(poly_text(g) for g in gens), *options, "--format", "json"]


def staircase_ops(rng: random.Random) -> list:
    """Every monomial ideal of colength <= 10, plus the fat points x^k, y^k.

    The seed shuffles the op order and the generator order and scales each
    generator by a nonzero integer; the ideals themselves do not change.
    """
    shapes = [p for n in range(1, STAIRCASE_MAX_COLENGTH + 1) for p in partitions(n)]
    shapes += [(k,) * k for k in FAT_POINT_POWERS]
    ops = []
    for parts in shapes:
        gens = [(parts[0], 0)]
        gens += [(parts[j], j) for j in range(1, len(parts)) if parts[j] < parts[j - 1]]
        gens.append((0, len(parts)))
        rng.shuffle(gens)
        polys = [{m: rng.choice((-1, 1)) * rng.randint(1, 9)} for m in gens]
        ops.append({"kind": "staircase", "argv": ideal_argv(polys), "parts": list(parts)})
    rng.shuffle(ops)
    return ops


def _dense(rng: random.Random, lead: tuple, degree: int) -> dict:
    poly = {lead: 1}
    for a in range(degree):
        for b in range(degree - a):
            c = rng.randint(-3, 3)
            if c and a + b:
                poly[(a, b)] = c
    return poly


def _unimodular(rng: random.Random):
    """A product of two elementary integer matrices, and its inverse."""
    s, t = rng.randint(-1, 1), rng.randint(-1, 1)
    u = ((1 + s * t, s), (t, 1))  # [[1, s], [0, 1]] @ [[1, 0], [t, 1]]
    inverse = ((1, -s), (-t, 1 + s * t))
    return u, inverse


IDENTITY = (((1, 0), (0, 1)), ((1, 0), (0, 1)))


def _support_op(roots, mults, g, change) -> dict:
    """The ideal (f(x), y - g(x)) with f = prod (x - r)^m, in the coordinates
    given by ``change`` = (u, u^-1), with its expected points."""
    (u11, u12), (u21, u22) = change[0]
    inverse = change[1]
    ell1 = {m: c for m, c in {(1, 0): u11, (0, 1): u12}.items() if c}
    ell2 = {m: c for m, c in {(1, 0): u21, (0, 1): u22}.items() if c}
    f = {(0, 0): 1}
    for r, m in zip(roots, mults):
        for _ in range(m):
            f = poly_mul(f, {(1, 0): 1, (0, 0): -r})
    f_coeffs = [f.get((i, 0), 0) for i in range(sum(mults) + 1)]
    gens = [compose_univariate(f_coeffs, ell1), poly_add(ell2, compose_univariate(g, ell1), -1)]
    points = []
    for r, m in zip(roots, mults):
        gr = g[0] + g[1] * r + g[2] * r * r
        x = inverse[0][0] * r + inverse[0][1] * gr
        y = inverse[1][0] * r + inverse[1][1] * gr
        points.append([x, y, m])
    return {
        "kind": "support",
        "argv": ideal_argv(gens),
        "gens": [sorted([list(m), c] for m, c in p.items()) for p in gens],
        "points": sorted(points),
    }


def generic_ops(rng: random.Random, golden_dir) -> list:
    """Non-monomial ideals: dense pairs, rational multi-point supports,
    the curated corpus and the golden replays."""
    ops = []
    # f = x^a + lower, g = y^b + lower: {f, g} has coprime leading terms in
    # degrevlex, so the ideal is zero-dimensional of colength a*b under any
    # order, while lex orders still need real Buchberger work.  No constant
    # terms: the origin is always a support point, so every op splits off
    # at least one local factor and op costs vary less from seed to seed.
    # The degree pairs and support shapes are fixed and only their order and
    # coefficients are seeded, so the amount of work varies little by seed.
    for (a, b), (order, variables) in DENSE_CASES:
        gens = [_dense(rng, (a, 0), a), _dense(rng, (0, b), b)]
        ops.append(
            {
                "kind": "dense",
                "argv": ideal_argv(gens, "--order", order, "--vars", variables),
                "gens": [sorted([list(m), c] for m, c in g.items()) for g in gens],
                "colength": a * b,
            }
        )
    # (f(x), y - g(x)) with f = prod (x - r)^m, moved by a unimodular change
    # of coordinates: every point is rational and every factor curvilinear.
    for shape in SUPPORT_SHAPES:
        mults = rng.sample(shape, len(shape))
        roots = rng.sample(range(-3, 4), len(mults))
        g = [rng.randint(-2, 2) for _ in range(3)]
        ops.append(_support_op(roots, mults, g, _unimodular(rng)))
    # Two points with coordinates near 10^5: the rational-root test finds
    # divisors of their products by trial division, so these ops carry the
    # QQ root-search traffic.  They do not depend on the seed.
    fixed = random.Random("generic:large-roots")
    for _ in range(LARGE_ROOT_OPS):
        roots = [fixed.choice((-1, 1)) * r for r in fixed.sample(range(30000, 100000), 2)]
        g = [fixed.randint(30000, 100000), 1, 0]
        ops.append(_support_op(roots, [1, 1], g, IDENTITY))
    for text in CURATED_CORPUS:
        for field in ("QQ", FP):
            argv = ["analyze", "--ideal", text, "--field", field, "--format", "json"]
            ops.append({"kind": "corpus", "argv": argv, "text": text, "field": field})
        argv = ["verify", "--ideal", text, "--field", "QQ", "--format", "json"]
        ops.append({"kind": "verify", "argv": argv})
    for name, text in sorted(GOLDEN_CASES.items()):
        expected = (golden_dir / name).read_text(encoding="utf-8")
        argv = ["analyze", "--ideal", text, "--format", "json"]
        ops.append({"kind": "golden", "argv": argv, "expected": expected})
    rng.shuffle(ops)
    return ops


def sampler_ops(rng: random.Random) -> list:
    """One-trial sampler runs over Fp:32003 at degrees 3 and 4."""
    ops = []
    for degree in (3, 4):
        for _ in range(SAMPLES_PER_DEGREE):
            argv = ["sample", "--field", FP, "--degree", str(degree), "--count", "1",
                    "--seed", str(rng.randrange(10**9)), "--format", "json"]
            ops.append({"kind": "sample", "argv": argv})
    rng.shuffle(ops)
    return ops


def census_ops(rng: random.Random) -> list:
    """census for n <= 38 and sweep without the engine cross-check for n <= 32."""
    ops = [
        {"kind": "census", "argv": ["census", "--n", str(n), "--format", "json"], "n": n}
        for n in range(1, CENSUS_MAX_N + 1)
    ]
    ops += [
        {"kind": "sweep", "argv": ["sweep", "--n", str(n), "--crosscheck-cutoff", "0",
                                   "--format", "json"], "n": n}
        for n in range(1, SWEEP_MAX_N + 1)
    ]
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, golden_dir) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "generic":
        return generic_ops(rng, golden_dir)
    return {"staircase": staircase_ops, "sampler": sampler_ops, "census": census_ops}[workload](rng)
