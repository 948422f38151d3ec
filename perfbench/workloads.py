"""Workloads and the seeded instance pools the benchmark feeds to the CLI.

A workload is one pipeline run on instances of one generator spec
(``GeneratorSpec(kind, seed, d, classes, max_members)``).  Instance seeds are
drawn from the workload seed, so the same seed gives the same instance files.

Sweep sizes of the pipeline workloads differ up to 500-fold between instances,
so a run that took its instances in seed order would measure the luck of the
draw.  For those workloads the pool is stratified by class-size profile:
slot ``i`` of every pool asks for the profile at quantile ``vdc(i + 1)`` (the
base-2 van der Corput sequence) of a fixed reference draw, and the workload
seed's candidate stream supplies the first unused instance with that profile.
Every prefix of the pool therefore has the same mix of sweep sizes whatever
the seed, while the geometry of each instance comes from the seed.  Slots are
filled on class sizes alone, before anything is solved; no instance is ever
skipped because of how the program handles it.
"""
from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path

import numpy as np

from quanthelly.helly import selection_count
from quanthelly.instances import GeneratorSpec, emit_instance, generate

# Seed of the reference draw that fixes the stratified size schedule.  It is
# the same for every workload seed, so every run sees the same sweep mix.
REFERENCE_SEED = 1909_04997
REFERENCE_DRAWS = 128
# Candidates a stratified pool may draw before giving up on a profile.
MAX_DRAWS = 20000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    kind: str
    dim: int
    classes: int
    max_members: int
    pool_size: int
    stratified: bool

    def spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(self.kind, seed, self.dim, self.classes,
                             self.max_members)


WORKLOADS = {
    w.name: w for w in (
        Workload("theorem1-d2", "theorem1", "common-ball", 2, 6, 3,
                 pool_size=16, stratified=True),
        Workload("colell-d3", "colell", "common-ball", 3, 9, 2,
                 pool_size=32, stratified=True),
        Workload("ell-d2", "ell", "tangent-halfspaces", 2, 6, 2,
                 pool_size=24, stratified=False),
    )
}


@dataclasses.dataclass(frozen=True)
class Instance:
    seed: int
    path: Path
    sizes: tuple
    selections: int   # selections swept before any result-dependent stage


def van_der_corput(i: int) -> float:
    """Base-2 radical inverse of i: 0.5, 0.25, 0.75, 0.125, ... for i = 1, 2, ..."""
    q, denom = 0.0, 1.0
    while i:
        denom *= 2.0
        i, bit = divmod(i, 2)
        q += bit / denom
    return q


def static_selections(workload: Workload, classes) -> int:
    """Selections swept by the stages whose size the instance alone fixes.

    colell sweeps its full selections twice (hypothesis check and lowest
    ellipsoids); theorem1 sweeps 2d- and (2d-1)-selections and then the
    (d+1)-selections of the classes its defining selection leaves over (added
    from the report by ``result_selections``); ell has no sweep and counts
    its whole family as one selection.
    """
    d = workload.dim
    if workload.pipeline == "colell":
        return 2 * selection_count(classes, classes.n_classes)
    if workload.pipeline == "theorem1":
        return (selection_count(classes, 2 * d)
                + selection_count(classes, 2 * d - 1))
    return 1


def result_selections(workload: Workload, sizes: tuple, report: dict) -> int:
    """Selections of the result-dependent theorem1 stage: the min-semiaxis
    sweep over one member of each remaining class."""
    if workload.pipeline != "theorem1":
        return 0
    count = 1
    for ci in report["report"]["certificates"]["remaining_classes"]:
        count *= sizes[ci]
    return count


def _profile(classes) -> tuple:
    return tuple(sorted(classes.sizes()))


def size_schedule(workload: Workload, slots: int) -> list:
    """Class-size profiles for the first ``slots`` pool slots, the same for
    every workload seed: profiles of a reference draw ordered by sweep size,
    read at van der Corput quantiles."""
    rng = np.random.default_rng(REFERENCE_SEED)
    ranked = []
    for s in rng.integers(0, 2**31, size=REFERENCE_DRAWS):
        classes = generate(workload.spec(int(s))).classes
        ranked.append((static_selections(workload, classes), _profile(classes)))
    ranked.sort()
    return [ranked[int(van_der_corput(i + 1) * len(ranked))][1]
            for i in range(slots)]


def build_pool(workload: Workload, seed: int, directory: Path) -> list:
    """Generates and writes the workload's instance files for one seed."""
    rng = np.random.default_rng([seed % 2**64,
                                 zlib.crc32(workload.name.encode())])
    if workload.stratified:
        wanted = size_schedule(workload, workload.pool_size)
    else:
        wanted = [None] * workload.pool_size
    waiting = {}
    pool = []
    draws = 0
    for profile in wanted:
        while not waiting.get(profile):
            if draws == MAX_DRAWS:
                raise RuntimeError(f"{workload.name}: no instance with class "
                                   f"sizes {profile} in {MAX_DRAWS} draws")
            s = int(rng.integers(0, 2**31))
            draws += 1
            inst = generate(workload.spec(s))
            key = _profile(inst.classes) if workload.stratified else None
            waiting.setdefault(key, []).append((s, inst))
        s, inst = waiting[profile].pop(0)
        path = directory / f"{workload.name}-{s}.json"
        emit_instance(inst, path)
        pool.append(Instance(s, path, inst.classes.sizes(),
                             static_selections(workload, inst.classes)))
    return pool
