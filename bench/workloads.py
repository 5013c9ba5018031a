"""The benchmark's workloads and the seeded inputs they run on.

Each workload is a list of karyhom CLI jobs.  A job is a verb, the
family arguments that build its algebra and any extra arguments.  Its
reference key (see ``refcheck.py``) is the job as it would be typed with
``--family``, so a relabelled ``--input`` run checks against the same
reference as the family run it came from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional


def family(tag: str, *, inner: Optional[str] = None, **params) -> tuple:
    args = ("--family", tag)
    if inner is not None:
        args += ("--inner", inner)
    for name, value in params.items():
        args += (f"--{name}", str(value))
    return args


@dataclass(frozen=True)
class Job:
    verb: str
    family_args: tuple
    extra: tuple = ()

    @property
    def key(self) -> str:
        return " ".join((self.verb,) + self.family_args + self.extra)

    def argv(self, input_path: Optional[str] = None) -> list:
        source = ("--input", input_path) if input_path else self.family_args
        return [self.verb, *source, *self.extra]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    smoke_jobs: tuple
    relabel: bool = False  # run on seeded basis permutations through --input

    def job_list(self, smoke: bool) -> tuple:
        return self.smoke_jobs if smoke else self.jobs


H = "heisenberg"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "betti-ungraded",
            "one large ungraded boundary matrix per degree: exact rank dominates, "
            "assembly is most of the rest, no Jacobi check runs",
            jobs=(
                Job("compute", family(H, k=2, m=6)),
                Job("compute", family("acj", k=2, m=6)),
            ),
            smoke_jobs=(
                Job("compute", family(H, k=2, m=2)),
                Job("compute", family("acj", k=2, m=2)),
                Job("compute", family(H, k=3, m=1)),
            ),
        ),
        Workload(
            "structure-check",
            "Jacobi and d^2 checks on relabelled custom JSON: no rank call, "
            "times the loader path custom-algebra users take",
            jobs=(
                Job("check", family("free3small", k=4)),
                Job("check", family("current", inner=H, k=4, m=1, j=2)),
                Job("check", family(H, k=4, m=2)),
                Job("check", family(H, k=3, m=3)),
            ),
            smoke_jobs=(
                Job("check", family("free3small", k=3)),
                Job("check", family("current", inner=H, k=2, m=1, j=2)),
                Job("check", family(H, k=2, m=2)),
            ),
            relabel=True,
        ),
        Workload(
            "graded-schur",
            "about 1500 tiny weight blocks a pass through the default --jobs pool: "
            "per-call rank overhead, block assembly and pool cost show here",
            jobs=(
                Job("compute", family("free2", k=2, n=4)),
                Job("compute", family("free2", k=3, n=4)),
                Job("decompose", family("free2", k=3, n=5), ("--degree", "3")),
            ),
            smoke_jobs=(
                Job("compute", family("free2", k=2, n=3)),
                Job("compute", family("free2", k=3, n=4)),
                Job("decompose", family("free2", k=3, n=4), ("--degree", "3")),
            ),
        ),
        Workload(
            "verify-repeat",
            "every validator: each boundary rank is recomputed two to three "
            "times, and toral and theta paths run only here",
            jobs=(
                Job("verify", family(H, k=2, m=5)),
                Job("verify", family("acj", k=2, m=5)),
                Job("verify", family("acj", k=3, m=3)),
                Job("verify", family("free3small", k=4)),
            ),
            smoke_jobs=(
                Job("verify", family(H, k=2, m=2)),
                Job("verify", family("acj", k=2, m=2)),
                Job("verify", family("acj", k=3, m=1)),
                Job("verify", family("free3small", k=3)),
            ),
        ),
    )
}


def algebra_sources(jobs) -> list:
    """The distinct family arguments of a job list, in first-use order."""
    seen = []
    for job in jobs:
        if job.family_args not in seen:
            seen.append(job.family_args)
    return seen


# -- seeded relabelling ------------------------------------------------


def _sort_with_sign(indices):
    """(sorted tuple, parity sign) of distinct indices.

    Kept here rather than imported so that the inputs do not depend on
    the program under test.
    """
    out = sorted(indices)
    inversions = sum(
        1 for i in range(len(indices)) for j in range(i + 1, len(indices))
        if indices[i] > indices[j]
    )
    return tuple(out), (-1 if inversions % 2 else 1)


def relabel(doc: dict, rng) -> dict:
    """The algebra document in a basis permuted by ``rng``.

    Basis element i becomes perm[i]; each bracket key is re-sorted and
    its value multiplied by the sign of that sort, so the document
    describes an isomorphic algebra.  Jacobi violations and the failing
    d^2 degrees are basis independent, so the references still hold.
    """
    dim = doc["dim"]
    perm = list(range(dim))
    rng.shuffle(perm)
    labels = [None] * dim
    for i, label in enumerate(doc["labels"]):
        labels[perm[i]] = label
    brackets = []
    for item in doc["brackets"]:
        args, sign = _sort_with_sign([perm[a] for a in item["args"]])
        value = sorted(
            ([sign * int(c), perm[i]] for c, i in item["value"]), key=lambda p: p[1]
        )
        brackets.append({"args": list(args), "value": value})
    brackets.sort(key=lambda b: b["args"])
    out = {"arity": doc["arity"], "dim": dim, "labels": labels, "brackets": brackets}
    if doc.get("weights") is not None:
        weights = [None] * dim
        for i, w in enumerate(doc["weights"]):
            weights[perm[i]] = w
        out["weights"] = weights
    return out


def input_name(family_args: tuple) -> str:
    """A file name for the relabelled document of one algebra."""
    return "-".join(a.lstrip("-") for a in family_args) + ".json"


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
