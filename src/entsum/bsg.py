"""Entropy Balog-Szemeredi-Gowers construction and verification.

From a weakly dependent pair (X, Y) the construction draws two conditionally
independent trials of X given Y and then a conditionally independent trial
of Y given the first X-copy, yielding a path joint (X1, X2, Y, Y') whose
conditional entropies satisfy explicit bounds in terms of the dependence
defect log K.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .dists import (
    JointDist,
    ci_trials,
    conditional_entropy,
    fibre_entropy,
    is_independent,
    joint_entropy,
    push_masses,
)
from .errors import CapExceededError, PreconditionError
from .fileio import dump_joint
from .metrics import MetricReport

# coordinate order of the path joint
X1, X2, Y, YP = 0, 1, 2, 3
PATH_ATOM_CAP = 10_000


class BsgInstance(NamedTuple):
    """A two-coordinate joint (X, Y) with its dependence defect log K.

    log K is the larger of the mutual-information defect
    Ent(X) + Ent(Y) - Ent(X, Y) and the sum-compression defect
    Ent(X+Y) - Ent(X)/2 - Ent(Y)/2, clamped at 0 so K >= 1.
    """

    joint: JointDist
    log_k: float

    @staticmethod
    def from_joint(j: JointDist) -> "BsgInstance":
        if j.k != 2:
            raise PreconditionError("instance needs a joint over exactly (X, Y)")
        if j.groups[0] != j.groups[1]:
            raise PreconditionError("X and Y must share a group")
        hx = joint_entropy(j, [0])
        hy = joint_entropy(j, [1])
        hxy = j.entropy()
        hsum = j.sum_dist([0, 1]).entropy()
        log_k = max(hx + hy - hxy, hsum - 0.5 * hx - 0.5 * hy, 0.0)
        return BsgInstance(j, log_k)


def build_path_joint(inst: BsgInstance) -> JointDist:
    """Joint law of (X1, X2, Y, Y') with mass p(x1,y) p(x2,y) / p_Y(y) * p(x1,y') / p_X(x1).

    X1, X2 are conditionally independent trials of X given Y, and Y' is a
    conditionally independent trial of Y given X1; hence X2 and Y' are
    conditionally independent given (X1, Y), which is an exact rational
    identity of the constructed masses.
    """
    j = inst.joint
    g = j.groups[0]
    # with m_x the X counts and L their lcm, p(x1, y') / p_X(x1) is n (L / m_x1) / L
    px = push_masses(j.counts, lambda a: a[0])
    lcm = math.lcm(*px.values())
    by_x: dict = {}
    for (x, y), n in j.counts.items():
        by_x.setdefault(x, []).append((y, n * (lcm // px[x])))
    trials = ci_trials(j, 1)
    atoms: dict = {}
    for (x1, x2, y), base in trials.counts.items():
        for yp, n in by_x[x1]:
            atoms[(x1, x2, y, yp)] = base * n
    return JointDist._with_counts((g, g, g, g), trials.den * lcm, atoms)


def factorization_exact(path: JointDist) -> bool:
    """Exact check that X2 and Y' are conditionally independent given (X1, Y)."""
    return is_independent(path, [X2], [YP], given=[X1, Y])


def verify_bsg(inst: BsgInstance) -> list[MetricReport]:
    """Evaluate the path-joint entropy bounds at the instance's log K.

    Reports, in order: Ent(X2 | X1, Y) >= Ent(X) - log K; the same for Y';
    the weak bound Ent(X1 - X2 | Y) <= Ent(X) + 4 log K; and the main bound
    Ent(X2 + Y' | X1, Y) <= Ent(X)/2 + Ent(Y)/2 + 7 log K.
    The path joint's size is checked against PATH_ATOM_CAP before it is built.
    """
    j = inst.joint
    # one path atom per (x1, y) in the support, x2 with p(x2, y) > 0 and y' with p(x1, y') > 0
    col = Counter(y for _, y in j.counts)
    row = Counter(x for x, _ in j.counts)
    size = sum(col[y] * row[x] for x, y in j.counts)
    if size > PATH_ATOM_CAP:
        raise CapExceededError(f"path joint has {size} atoms, cap {PATH_ATOM_CAP}")
    path = build_path_joint(inst)
    if not factorization_exact(path):
        raise AssertionError("conditional-independence factorization failed")
    g = j.groups[0]
    hx = joint_entropy(j, [0])
    hy = joint_entropy(j, [1])
    logk = inst.log_k
    w = {"joint": dump_joint(j), "log_k": logk}

    h_x2_given = conditional_entropy(path, [X2], [X1, Y])
    h_yp_given = conditional_entropy(path, [YP], [X1, Y])

    h_diff_given_y = fibre_entropy(path, lambda a: (a[Y], g.sub(a[X1], a[X2])))
    h_sum_given = fibre_entropy(path, lambda a: ((a[X1], a[Y]), g.add(a[X2], a[YP])))

    return [
        MetricReport("bsg_first_trial_lower", hx - logk, h_x2_given, w),
        MetricReport("bsg_second_trial_lower", hy - logk, h_yp_given, w),
        MetricReport("bsg_weak_difference", h_diff_given_y, hx + 4.0 * logk, w),
        MetricReport("bsg_independent_sum", h_sum_given, 0.5 * hx + 0.5 * hy + 7.0 * logk, w),
    ]
