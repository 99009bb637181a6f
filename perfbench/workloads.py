"""Seeded request generators for the benchmark workloads.

The program under test never sees the seed: each workload turns it into a
deterministic stream of requests, and only those inputs reach fraccalc.
The verification grid is frozen here rather than imported from
fraccalc.verify, so a later change that widens the package's own grid does
not change what the benchmark runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import Iterator, NamedTuple

# frozen copy of the verification grid (fraccalc.verify at the benchmark's creation)
ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.5, 2.5)
GAMMAS = (-0.5, 0.0, 0.5, 1.0, 2.0)
LAMBDAS = (-1.0, 0.5, 1.0)
NUS = (0.3, 1.0, 2.0)
DELTAS = (0.2, 0.4, 0.5, 0.6, 0.8)
TS = (0.5, 1.0, 2.0, 5.0)

# family name -> (CLI parameter name, grid values)
FAMILIES = {
    "power": ("gamma", GAMMAS),
    "exp": ("lambda", LAMBDAS),
    "powerlog": ("nu", NUS),
    "abspower": ("delta", DELTAS),
}

# valid operator/family pairs: lower-limit-zero operators take the first
# three families, the Weyl operators take abspower
PAIRS = (
    ("rl-int", "power"),
    ("rl-int", "exp"),
    ("rl-int", "powerlog"),
    ("rl-der", "power"),
    ("rl-der", "exp"),
    ("rl-der", "powerlog"),
    ("weyl-int", "abspower"),
    ("weyl-der", "abspower"),
)

# documented domain of the continuous sweeps
ALPHA_MAX = 2.5
T_RANGE = (0.5, 5.0)
GAMMA_RANGE = (-1.0, 3.0)  # open at -1
LAMBDA_T_MAX = 50.0
NU_MAX = 3.0

CLI_BOTH_SHARE = 0.25  # share of cli-eval requests that run --method both
HASH_PREFIX = 4096  # the request-stream hash covers this many requests


class Request(NamedTuple):
    op: str
    alpha: float
    family: str
    param: float
    t: float
    method: str = "closed"  # only cli-eval varies it

    def fn_arg(self) -> str:
        """The --fn argument of the CLI, with every digit of the parameter."""
        return f"{self.family}:{FAMILIES[self.family][0]}={self.param!r}"

    def eval_argv(self) -> list[str]:
        argv = ["eval", "--op", self.op, "--alpha", repr(self.alpha)]
        argv += ["--fn", self.fn_arg(), "--t", repr(self.t)]
        if self.method != "closed":
            argv += ["--method", self.method]
        return argv


def grid_requests() -> list[Request]:
    """Every valid operator/family point of the verification grid, in a fixed order."""
    out = []
    for op, family in PAIRS:
        for alpha in ALPHAS:
            for param in FAMILIES[family][1]:
                if op == "weyl-int" and not alpha < param:
                    continue
                for t in TS:
                    out.append(Request(op, alpha, family, param, t))
    return out


def _uniform(rng: random.Random, lo: float, hi: float, hi_included: bool = True) -> float:
    """Uniform on (lo, hi], or on (lo, hi) when hi_included is false."""
    while True:
        x = rng.uniform(lo, hi)
        if lo < x and (x < hi or (hi_included and x == hi)):
            return x


def _sweep_request(rng: random.Random) -> Request:
    op, family = PAIRS[rng.randrange(len(PAIRS))]
    t = rng.uniform(*T_RANGE)
    if op == "weyl-int":
        delta = _uniform(rng, 0.0, 1.0, hi_included=False)
        alpha = _uniform(rng, 0.0, delta, hi_included=False)
        return Request(op, alpha, family, delta, t)
    alpha = _uniform(rng, 0.0, ALPHA_MAX)
    while op.endswith("-der") and alpha == math.floor(alpha):
        alpha = _uniform(rng, 0.0, ALPHA_MAX)
    if family == "power":
        param = _uniform(rng, *GAMMA_RANGE)
    elif family == "exp":
        param = rng.uniform(-LAMBDA_T_MAX, LAMBDA_T_MAX) / t
    elif family == "powerlog":
        param = _uniform(rng, 0.0, NU_MAX)
    else:
        param = _uniform(rng, 0.0, 1.0, hi_included=False)
    return Request(op, alpha, family, param, t)


def stream(workload: str, seed: int) -> Iterator[Request]:
    """The endless, deterministic request stream of one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("oracle-grid", "cli-eval"):
        grid = grid_requests()
        while True:
            req = grid[rng.randrange(len(grid))]
            if workload == "cli-eval" and rng.random() < CLI_BOTH_SHARE:
                req = req._replace(method="both")
            yield req
    elif workload == "oracle-sweep":
        while True:
            yield _sweep_request(rng)
    elif workload == "cli-verify":
        while True:
            yield Request("verify", 0.0, "all", 0.0, 0.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup_requests(workload: str, seed: int, count: int) -> list[Request]:
    """Requests that fill caches before timing, drawn apart from the timed stream."""
    if workload == "oracle-grid":
        return grid_requests()
    return list(itertools.islice(stream(workload, seed + 1_000_003), count))


def stream_hash(workload: str, seed: int) -> str:
    """sha256 of the first HASH_PREFIX requests: equal hashes mean equal inputs."""
    digest = hashlib.sha256()
    for req in itertools.islice(stream(workload, seed), HASH_PREFIX):
        digest.update(json.dumps(list(req)).encode())
    return digest.hexdigest()
