"""The benchmark's workloads: named instance sets and how often each CLI
stage repeats per pass, so that no stage is timed on a few milliseconds."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

STAGES = ("gen", "verify", "lift-verify")


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str                         # counting | explicit
    q: int
    n: int
    m: int
    g: int
    s: int = 1                        # explicit only
    k: int = 0                        # counting only

    @property
    def dim(self) -> int:
        if self.kind == "counting":
            return self.k
        return self.n - 2 * self.g * self.s + 1

    def beta_exponent(self, seed: int) -> int:
        """The code's shift beta = gamma^e, drawn from the seed.  Every
        shift gives the same code and a rescaled list, so list and ball
        sizes do not depend on it, while every serial the program handles
        does."""
        rng = random.Random(f"{seed}:{self.name}")
        return rng.randrange(self.q ** self.m - 1)

    def gen_argv(self, seed: int, out: str) -> List[str]:
        common = ["--beta-exp", str(self.beta_exponent(seed)),
                  "--seed", str(seed), "--out", out]
        if self.kind == "counting":
            return ["gen-counting", "--q", str(self.q), "--n", str(self.n),
                    "--m", str(self.m), "--k", str(self.k),
                    "--g", str(self.g)] + common
        return ["gen-explicit", "--q", str(self.q), "--g", str(self.g),
                "--s", str(self.s), "--n", str(self.n),
                "--m", str(self.m)] + common

    def fields(self) -> Tuple[List[tuple], List[tuple]]:
        """Fields GF(q^e) and embeddings (q, small, big) the CLI builds."""
        degrees = {self.m, self.n}
        embeds = {(self.q, self.n, self.m)}
        if self.kind == "counting":
            degrees.add(self.g)
            embeds.add((self.q, self.g, self.n))
        return sorted((self.q, e) for e in degrees), sorted(embeds)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Tuple[Instance, ...]
    reps: Dict[str, int]              # CLI calls per instance and pass

    def fields(self):
        degrees, embeds = set(), set()
        for inst in self.instances:
            d, e = inst.fields()
            degrees.update(d)
            embeds.update(e)
        return sorted(degrees), sorted(embeds)


WORKLOADS = {w.name: w for w in (
    Workload("q2-exhaustive", (
        Instance("q2-counting-gab6-3", "counting", 2, 6, 6, 2, k=3),
        Instance("q2-explicit-gab6-3", "explicit", 2, 6, 6, 2, s=1),
        Instance("q2-explicit-gab8-1-m16", "explicit", 2, 8, 16, 2, s=2),
    ), {"gen": 40, "verify": 5, "lift-verify": 1}),
    Workload("odd-exhaustive", (
        Instance("q3-counting-gab4-2", "counting", 3, 4, 4, 2, k=2),
        Instance("q3-explicit-gab4-1-m8", "explicit", 3, 4, 8, 2, s=1),
        Instance("q3-explicit-gab6-1-g3", "explicit", 3, 6, 6, 3, s=1),
        Instance("q5-explicit-gab4-1", "explicit", 5, 4, 4, 2, s=1),
    ), {"gen": 4, "verify": 4, "lift-verify": 1}),
    Workload("frontier", (
        Instance("q2-explicit-gab8-5", "explicit", 2, 8, 8, 2, s=1),
        Instance("q2-explicit-gab10-7", "explicit", 2, 10, 10, 2, s=1),
        Instance("q2-counting-gab12-2-g3", "counting", 2, 12, 12, 3, k=2),
        Instance("q2-counting-gab10-5", "counting", 2, 10, 10, 2, k=5),
    ), {"gen": 3, "verify": 1, "lift-verify": 15}),
)}
