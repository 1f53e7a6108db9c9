"""JSON file formats for distributions, joints and certificates.

Masses are exact rationals (num/den pairs); loaders reject anything that does
not sum to exactly 1, so files round-trip without renormalisation surprises.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .dists import Dist, JointDist
from .errors import SchemaError
from .groups import GroupSpec


def _read(path_or_obj):
    if isinstance(path_or_obj, (str, Path)):
        with open(path_or_obj) as fh:
            try:
                return json.load(fh)
            except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
                raise SchemaError(f"{path_or_obj} is not valid JSON: {exc}") from exc
    return path_or_obj


def read_jsonl(path) -> list:
    """The JSON values on the non-blank lines of a file."""
    with open(path) as fh:
        try:
            return [json.loads(line) for line in fh if line.strip()]
        except ValueError as exc:
            raise SchemaError(f"{path} is not valid JSON lines: {exc}") from exc


def require_object(obj, fields: dict, what: str) -> dict:
    """`obj` if it is a JSON object whose value at each key of `fields` has that
    key's type; as in `_is_int`, true and false are no numbers, and neither
    are NaN and ±Infinity, which no check's slack can be."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object, got {obj!r}")
    for key, kind in fields.items():
        v = obj.get(key)
        if not isinstance(v, kind) or isinstance(v, bool) or v != v or v in (math.inf, -math.inf):
            raise SchemaError(f"{what} needs {key!r} of type {kind}, got {v!r}")
    return obj


def _is_int(v) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(v, int) and not isinstance(v, bool)


def _group(obj) -> GroupSpec:
    if not isinstance(obj, list) or not all(_is_int(m) and m >= 0 for m in obj):
        raise SchemaError(f"group must be a list of non-negative ints, got {obj!r}")
    return GroupSpec(obj)


def _known(obj: dict, keys: set[str], what: str) -> None:
    extra = set(obj) - keys
    if extra:
        raise SchemaError(f"unknown {what} keys: {sorted(extra)}")


def _atoms(obj) -> list[dict]:
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
        raise SchemaError(f"'atoms' must be a list of objects, got {atoms!r}")
    return atoms


def _element(coords, group: GroupSpec, where: dict) -> tuple:
    if (
        not isinstance(coords, (list, tuple))
        or len(coords) != group.dim
        or not all(_is_int(c) for c in coords)
    ):
        raise SchemaError(f"coordinates {coords!r} in {where!r} do not match the group")
    return group.reduce(coords)


def _fraction(atom: dict) -> Fraction:
    try:
        num, den = atom["num"], atom["den"]
    except KeyError as exc:
        raise SchemaError(f"atom {atom!r} lacks exact num/den fields") from exc
    if not _is_int(num) or not _is_int(den) or num < 0 or den <= 0:
        raise SchemaError(f"atom {atom!r} must carry non-negative integer num and positive den")
    return Fraction(num, den)


def _law(make, ambient, atoms: list[dict], fields: set[str], key):
    """make(ambient, masses) of the atoms' masses summed per key(atom); the
    constructor's ValueError, as for a total other than 1, is a SchemaError."""
    mass: dict = {}
    for atom in atoms:
        _known(atom, fields, "atom")
        k = key(atom)
        mass[k] = mass.get(k, 0) + _fraction(atom)
    try:
        return make(ambient, mass)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_dist(path_or_obj) -> Dist:
    obj = _read(path_or_obj)
    try:
        group = _group(obj["group"])
        atoms = _atoms(obj)
    except (KeyError, TypeError) as exc:
        raise SchemaError("distribution file needs 'group' and 'atoms'") from exc
    _known(obj, {"group", "atoms"}, "distribution")
    return _law(Dist, group, atoms, {"x", "num", "den"}, lambda a: _element(a.get("x", ()), group, a))


def _num_den(n: int, den: int) -> dict:
    """The mass n/den as an atom's num/den fields, in lowest terms."""
    g = math.gcd(n, den)
    return {"num": n // g, "den": den // g}


def dump_dist(p: Dist) -> dict:
    return {
        "group": list(p.group.moduli),
        "atoms": [{"x": list(e), **_num_den(n, p.den)} for e, n in p.counts.items()],
    }


def load_joint(path_or_obj) -> JointDist:
    obj = _read(path_or_obj)
    try:
        groups = [_group(g) for g in obj["groups"]]
        atoms = _atoms(obj)
    except (KeyError, TypeError) as exc:
        raise SchemaError("joint file needs 'groups' and 'atoms'") from exc
    _known(obj, {"groups", "atoms"}, "joint")

    def key(atom):
        xs = atom.get("xs")
        if not isinstance(xs, list) or len(xs) != len(groups):
            raise SchemaError(f"atom {atom!r} does not match the coordinate count")
        return tuple(_element(x, g, atom) for g, x in zip(groups, xs))

    return _law(JointDist, groups, atoms, {"xs", "num", "den"}, key)


def dump_joint(j: JointDist) -> dict:
    return {
        "groups": [list(g.moduli) for g in j.groups],
        "atoms": [{"xs": [list(x) for x in atom], **_num_den(n, j.den)} for atom, n in j.counts.items()],
    }


def save_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
