"""Command-line interface.

Exit codes: 0 success, 1 inequality violations found, 2 usage/schema errors,
141 when the reader closed stdout before the output was written.
All outputs are JSON on stdout except `report`, which prints a table.
Each handler imports the modules it runs, so a command loads only its own code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import EntsumError, IncompatibleGroupError, SchemaError
from .fileio import load_dist, load_joint, read_jsonl

def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_entropy(args) -> int:
    from .dists import entropy

    p = load_dist(args.dist)
    _emit({"entropy": entropy(p), "support": len(p)})
    return 0


def _cmd_doubling(args) -> int:
    from .metrics import doubling_constant

    p = load_dist(args.dist)
    _emit({"doubling": doubling_constant(p)})
    return 0


def _cmd_ruzsa(args) -> int:
    from .metrics import ruzsa_distance

    p = load_dist(args.dist_a)
    q = load_dist(args.dist_b)
    _emit({"ruzsa_distance": ruzsa_distance(p, q)})
    return 0


def _cmd_transport(args) -> int:
    from .transport import (
        identity_certificate,
        independent_pair_certificate,
        transport_exact,
        translate_shift,
        uniformise_group,
    )

    p = load_dist(args.source)
    q = load_dist(args.target)
    if p.group != q.group:
        raise IncompatibleGroupError("endpoints must share a group")
    if args.exact:
        cert = transport_exact(p, q, cap=args.cap)
    else:
        shift = translate_shift(p, q)
        if shift is not None:
            cert = identity_certificate(p, shift)
        elif p.group.is_finite() and len(q) == q.group.order() and len(set(q.counts.values())) == 1:
            cert = uniformise_group(p, 1e9)
        else:
            cert = independent_pair_certificate(p, q)
        cert.validate(p)
    payload = cert.to_json()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n")
        _emit({"cost": cert.cost, "certificate": args.out})
    else:
        _emit(payload)
    return 0


def _cmd_check(args) -> int:
    from .metrics import check_ese_suite

    p = load_dist(args.dist_a)
    q = load_dist(args.dist_b)
    r = load_dist(args.dist_c) if args.dist_c else p
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    for rep in check_ese_suite(p, q, r, args.n):
        witness_path = None
        if out_dir:
            witness_path = str(out_dir / f"witness-{rep.name}.json")
            Path(witness_path).write_text(json.dumps(rep.witness, sort_keys=True) + "\n")
        _emit(
            {
                "name": rep.name,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "slack": rep.slack,
                "witness_path": witness_path,
            }
        )
        if rep.violated():
            exit_code = 1
    return exit_code


def _cmd_bsg(args) -> int:
    from .bsg import BsgInstance, verify_bsg

    j = load_joint(args.joint)
    inst = BsgInstance.from_joint(j)
    for rep in verify_bsg(inst):
        _emit(rep.to_json())
    return 0


def _cmd_inverse(args) -> int:
    from .inverse import detect_coset_uniform, effective_support_search

    p = load_dist(args.dist)
    coset = detect_coset_uniform(p)
    core = effective_support_search(p)
    _emit(
        {
            "coset": {
                "is_coset_uniform": coset.is_coset_uniform,
                "subgroup": sorted(map(list, coset.subgroup)) if coset.subgroup is not None else None,
                "base": list(coset.base) if coset.base is not None else None,
                "doubling": coset.doubling,
            },
            "core": {
                "size": len(core.core_set),
                "mass": float(core.mass),
                "log_size_gap": core.log_size_gap,
                "energy_ratio": core.energy_ratio,
                "C": core.c_value,
            },
        }
    )
    return 0


def _cmd_experiment(args) -> int:
    from .dists import entropy
    from .torsionfree import (
        binomial_entropy_gap,
        bridge_entropy,
        doubling_experiment,
        entxx_explore,
        smooth_shift_search,
    )

    if args.what == "binomial-doubling":
        _emit({"n": args.n, "doubling": doubling_experiment(args.n),
               "entropy_gap": binomial_entropy_gap(args.n)})
    elif args.what == "bridge":
        p = load_dist(args.dist)
        _, ent = bridge_entropy(p)
        _emit({"discrete_entropy": entropy(p), "continuous_entropy": ent})
    elif args.what == "smooth-shift":
        p = load_dist(args.dist)
        rep = smooth_shift_search(p, args.mu)
        _emit(
            {
                "shift": list(rep.shift),
                "relaxed": rep.relaxed,
                "max_char_dist": rep.max_char_dist,
                "realized_tv": rep.realized_tv,
                "spectrum_size": len(rep.spectrum),
            }
        )
    elif args.what == "entxx":
        _emit({"n": args.n, "k": args.k, "gap": entxx_explore(args.n, args.k)})
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, fuzz_run

    cfg = FuzzConfig.from_json(args.config) if args.config else FuzzConfig()
    given = {"seed": args.seed, "instance_count": args.count, "workers": args.workers}
    cfg = cfg._replace(**{k: v for k, v in given.items() if v is not None})
    summary = fuzz_run(cfg, args.out)
    _emit(summary)
    return 1 if summary["violations"] else 0


def _cmd_replay(args) -> int:
    from .fuzz import replay

    result = replay(args.path)
    _emit(result)
    return 0 if result["reproduced"] else 1


def _cmd_report(args) -> int:
    from .fuzz import report_render

    text, _ = report_render(read_jsonl(args.results))
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="entsum", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("entropy", help="entropy of a distribution file")
    s.add_argument("dist")
    s.set_defaults(fn=_cmd_entropy)

    s = sub.add_parser("doubling", help="doubling constant of a distribution")
    s.add_argument("dist")
    s.set_defaults(fn=_cmd_doubling)

    s = sub.add_parser("ruzsa", help="Ruzsa distance between two distributions")
    s.add_argument("dist_a")
    s.add_argument("dist_b")
    s.set_defaults(fn=_cmd_ruzsa)

    s = sub.add_parser("transport", help="transport certificate between laws")
    s.add_argument("source")
    s.add_argument("target")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--construct", action="store_true")
    s.add_argument("--cap", type=int, default=24)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_transport)

    s = sub.add_parser("check", help="run the sumset inequality suite on laws")
    s.add_argument("dist_a")
    s.add_argument("dist_b")
    s.add_argument("dist_c", nargs="?")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--out", help="directory for witness files")
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("bsg", help="verify the BSG bounds on a joint file")
    s.add_argument("joint")
    s.set_defaults(fn=_cmd_bsg)

    s = sub.add_parser("inverse", help="coset detector and core diagnostics")
    s.add_argument("dist")
    s.set_defaults(fn=_cmd_inverse)

    s = sub.add_parser("experiment", help="torsion-free experiments")
    what = s.add_subparsers(dest="what", required=True)
    e = what.add_parser("binomial-doubling")
    e.add_argument("--n", type=int, required=True)
    e = what.add_parser("bridge")
    e.add_argument("dist")
    e = what.add_parser("smooth-shift")
    e.add_argument("dist")
    e.add_argument("--mu", type=float, required=True)
    e = what.add_parser("entxx")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=_cmd_experiment)

    s = sub.add_parser("fuzz", help="run the property-based inequality fuzzer")
    s.add_argument("--config")
    s.add_argument("--seed", type=int)
    s.add_argument("--count", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--out", default="fuzz-out")
    s.set_defaults(fn=_cmd_fuzz)

    s = sub.add_parser("replay", help="replay a stored counterexample")
    s.add_argument("path")
    s.set_defaults(fn=_cmd_replay)

    s = sub.add_parser("report", help="render a results.jsonl file as a table")
    s.add_argument("results")
    s.set_defaults(fn=_cmd_report)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): as Python's signal docs advise for
        # SIGPIPE, point stdout at devnull so the final flush cannot fail again,
        # and exit as a shell reports a writer stopped by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except EntsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
