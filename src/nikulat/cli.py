"""Command-line surface.

Verbs: classify, profile, reflect, orbit, embed, saturate, enumerate, audit.
Exit codes: 0 success, 1 domain-level failure (non-primitive input, refuted
expectations, lattice mismatch), 2 usage or I/O failure (parse errors,
malformed JSON, unwritable paths, flag values a verb cannot use).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import serialize
from .audit import run_all
from .exprs import ExpressionError, format_vector, parse_vector
from .isometry import OrbitBudget, distinct_invariants, orbit_explore, reflection, same_orbit_witness
from .lattice import EmbeddingMap, LatticeError, LatticeVector, check_embedding, divisibility, saturate
from .model import (
    DEFAULT_WINDOW,
    EnumerationWindow,
    build_model,
    classify_isotropic_type,
    classify_orbit,
    default_generator_table,
    default_generators,
    enumerate_primitive_isotropic,
    eta_embedding,
    eta_from_matrix,
    vector_profile,
)


def _emit(obj) -> None:
    print(serialize.dumps(obj))


def _read_vector(args, attr="expr") -> LatticeVector:
    """Vector from the expression argument or from --coords FILE; exactly one must be given."""
    expr = getattr(args, attr)
    if args.coords is not None:
        if expr is not None:
            raise UsageError(f"two sources for one vector: {expr!r} and --coords {args.coords}")
        return serialize.vector_from_obj(serialize.load_json(args.coords))
    if expr is None:
        raise ExpressionError("no vector given: pass an expression or --coords FILE")
    return parse_vector(expr)


class UsageError(ValueError):
    """A flag value the verb cannot use; reported with exit code 2."""


def _eta_file(path: str) -> tuple[str, EmbeddingMap]:
    """The eta variant of a matrix file, labelled by the file's basename."""
    return os.path.basename(path), eta_from_matrix(serialize.matrix_from_obj(serialize.load_json(path)))


def _budget(args) -> OrbitBudget:
    try:
        return OrbitBudget(
            coord_bound=args.coord_bound,
            max_frontier=args.max_frontier,
            max_depth=args.max_depth,
        )
    except LatticeError as exc:
        raise UsageError(f"bad budget flags: {exc}") from exc


def _add_budget_flags(parser, prefix="") -> None:
    default = OrbitBudget()
    parser.add_argument(f"--{prefix}coord-bound", dest="coord_bound", type=int,
                        default=default.coord_bound, help="max |coordinate| of retained vectors")
    parser.add_argument(f"--{prefix}max-frontier", dest="max_frontier", type=int,
                        default=default.max_frontier, help="cap on retained vectors")
    parser.add_argument(f"--{prefix}max-depth", dest="max_depth", type=int,
                        default=default.max_depth, help="breadth-first generations")


def cmd_classify(args) -> int:
    v = _read_vector(args)
    result = classify_orbit(v)
    profile = result.profile
    fibration = None
    if profile.q == 0:
        fibration = classify_isotropic_type(v)
    if args.json:
        obj = {
            "case": result.case,
            "i": result.i,
            "representative": serialize.vector_to_obj(result.representative),
            "representative_expr": result.representative_expr,
            "note": result.note,
            "profile": dataclasses.asdict(profile),
            "fibration": None
            if fibration is None
            else {
                "type": fibration.type_label,
                "representative_expr": fibration.representative_expr,
                "polarisation": list(fibration.polarisation_type),
                "pair_sigma_mod4": fibration.pair_sigma_mod4,
                "sigma_pairing_forces_type_a": fibration.sigma_pairing_forces_type_a,
            },
        }
        _emit(obj)
        return 0
    line = f"{result.case} i={result.i} rep={result.representative_expr} [q={profile.q} div={profile.div}]"
    if result.note:
        line += f" ({result.note})"
    print(line)
    if fibration is not None:
        print(
            f"isotropic: type {fibration.type_label}, polarisation "
            f"{fibration.polarisation_type}, (v,SigmaY) mod 4 = {fibration.pair_sigma_mod4}"
        )
    return 0


def cmd_profile(args) -> int:
    v = _read_vector(args)
    profile = vector_profile(v)
    clauses = {
        "u_part_not_divisible_by_2": not profile.u_part_div_by_2,
        "e8_part_divisible_by_2": profile.e8_part_div_by_2,
        "gamma_part_in_delta_sigma_span": profile.gamma_in_delta_sigma_span,
    }
    if args.json:
        obj = dataclasses.asdict(profile)
        obj["star_condition"] = {**clauses, "holds": profile.star}
        _emit(obj)
        return 0
    print(f"vector {format_vector(v)}")
    for key, value in dataclasses.asdict(profile).items():
        print(f"  {key}: {value}")
    print(f"  star_condition: {profile.star} {clauses}")
    return 0


def cmd_reflect(args) -> int:
    root = parse_vector(args.root)
    target = _read_vector(args, attr="target")
    image = reflection(root)(target)
    if args.json:
        _emit(
            {
                "root": serialize.vector_to_obj(root),
                "input": serialize.vector_to_obj(target),
                "image": serialize.vector_to_obj(image),
                "image_expr": format_vector(image),
            }
        )
        return 0
    print(format_vector(image))
    return 0


def cmd_orbit(args) -> int:
    seed = _read_vector(args)
    gens = default_generators()
    names = tuple(name for name, _ in default_generator_table())
    if args.gens_file is not None:
        roots = [serialize.vector_from_obj(obj) for obj in serialize.load_json(args.gens_file)]
        gens = tuple(reflection(r) for r in roots)
        names = tuple(f"root{k}" for k in range(len(gens)))
    budget = _budget(args)
    if args.witness is not None:
        other = parse_vector(args.witness)
        word = same_orbit_witness(seed, other, gens, budget)
        # None means either cause; only a differing invariant proves distinct orbits
        differ = [f"{name} {a} vs {b}" for name, a, b in distinct_invariants(seed, other)]
        if args.json:
            obj = serialize.witness_to_obj(seed, other, word) if word is not None else {
                "from": serialize.vector_to_obj(seed),
                "to": serialize.vector_to_obj(other),
                "word": None,
                "note": "distinct orbits: " + ", ".join(differ) if differ
                else "no witness within budget; this does NOT prove distinct orbits",
            }
            _emit(obj)
        elif differ:
            print("distinct orbits:", ", ".join(differ))
        elif word is None:
            print("no witness within budget (absence is not a proof of distinct orbits)")
        else:
            print("word:", " ".join(names[j] for j in word) if word else "(empty)")
        return 0
    out = args.output
    if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or os.curdir)):
        raise UsageError(f"cannot write the orbit to {out!r}: not a file in an existing directory")
    orbit = orbit_explore(seed, gens, budget)
    if args.output is not None:
        serialize.save_text(args.output, serialize.dumps(serialize.orbit_to_obj(orbit)) + "\n")
    if args.json:
        _emit(
            {
                "size": len(orbit),
                "exhausted": orbit.exhausted,
                "seed": serialize.vector_to_obj(orbit.seed),
            }
            if args.output is not None
            else serialize.orbit_to_obj(orbit)
        )
    else:
        print(f"orbit size {len(orbit)} (exhausted: {orbit.exhausted})")
    return 0


def cmd_embed(args) -> int:
    label, emb = _eta_file(args.matrix_file) if args.matrix_file is not None else ("as-written", eta_embedding())
    report = check_embedding(emb)
    image_obj = None
    if args.vector is not None or args.coords is not None:
        model, _ = build_model()
        if args.vector is not None and args.coords is not None:
            raise UsageError(f"two sources for one vector: --vector {args.vector} and --coords {args.coords}")
        if args.coords is not None:
            v = serialize.vector_from_obj(serialize.load_json(args.coords))
            if v.lattice.gram != model.lambda_fix.gram:
                raise LatticeError("embed --coords expects a vector of Lfix")
        else:
            v = model.lambda_fix.vector(serialize.int_list(json.loads(args.vector), "--vector"))
        image_obj = serialize.vector_to_obj(emb(emb.domain.vector(v.coords)))
    obj = {
        "variant": label,
        "isometric": report.isometric,
        "primitive": report.primitive,
        "saturation_index": report.saturation_index,
        "index_invariant_factors": list(report.index_invariant_factors),
        "image": image_obj,
    }
    if args.json:
        _emit(obj)
    else:
        flag = "" if report.isometric else "  << NOT an isometric embedding of Lfix(2)"
        print(f"variant {label}: isometric={report.isometric}{flag}")
        print(f"primitive={report.primitive} saturation_index={report.saturation_index} "
              f"factors={list(report.index_invariant_factors)}")
        if image_obj is not None:
            print("image:", image_obj["coords"])
    return 0


def cmd_saturate(args) -> int:
    if args.coords is not None:
        if args.exprs:
            raise UsageError(f"two sources for the generators: {args.exprs} and --coords {args.coords}")
        gens = [serialize.vector_from_obj(o) for o in serialize.load_json(args.coords)]
    else:
        gens = [parse_vector(e) for e in args.exprs]
    if not gens:
        raise ExpressionError("saturate needs at least one generator")
    report = saturate(gens[0].lattice, gens)
    if args.json:
        _emit(
            {
                "generators": [serialize.vector_to_obj(g) for g in report.generators],
                "saturation_basis": [serialize.vector_to_obj(g) for g in report.saturation_basis],
                "index_invariant_factors": list(report.index_invariant_factors),
                "total_index": report.total_index,
            }
        )
        return 0
    print(f"total index {report.total_index}, invariant factors {list(report.index_invariant_factors)}")
    for g in report.saturation_basis:
        print("  basis:", list(g.coords))
    return 0


def cmd_enumerate(args) -> int:
    blocks = tuple(name.strip() for name in args.blocks.split(",") if name.strip())
    try:
        window = EnumerationWindow(blocks, args.bound)
    except LatticeError as exc:
        raise UsageError(f"bad enumerate flags: {exc}") from exc
    if args.limit < 0:
        raise UsageError(f"bad enumerate flags: --limit must be >= 0, got {args.limit}")
    count = 0
    for v in enumerate_primitive_isotropic(window):
        count += 1
        if args.json:
            print(json.dumps(serialize.vector_to_obj(v), sort_keys=True, separators=(",", ":")))
        else:
            print(format_vector(v), f"[div={divisibility(v)}]")
        if args.limit and count >= args.limit:
            break
    if not args.json:
        print(f"# {count} vectors")
    return 0


def cmd_audit(args) -> int:
    budget, eta = _budget(args), _eta_file(args.eta_matrix) if args.eta_matrix is not None else None
    out_dir = args.output_dir
    os.makedirs(out_dir, exist_ok=True)  # before the audit, so an unusable directory fails at once
    report = run_all(budget=budget, eta=eta)
    serialize.save_text(os.path.join(out_dir, "report.txt"), report.to_text())
    serialize.save_text(os.path.join(out_dir, "report.json"), serialize.dumps(report.to_obj()) + "\n")
    print(report.to_text(), end="")
    print(f"wrote {os.path.join(out_dir, 'report.txt')} and report.json")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nikulat",
        description="Exact lattice arithmetic for Nikulin-type orbifold period lattices.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="monodromy-orbit case and fibration type of a vector")
    p.add_argument("expr", nargs="?", help='vector expression, e.g. "L(1)+e2"')
    p.add_argument("--coords", help="JSON vector file instead of an expression")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("profile", help="all numerical invariants of a vector")
    p.add_argument("expr", nargs="?")
    p.add_argument("--coords")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("reflect", help="apply the reflection in a (-2)-root")
    p.add_argument("root", help="root expression (square must be -2)")
    p.add_argument("target", nargs="?", help="vector to reflect")
    p.add_argument("--coords", help="JSON vector file for the target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("orbit", help="breadth-first reflection orbit of a seed")
    p.add_argument("expr", nargs="?")
    p.add_argument("--coords")
    p.add_argument("--witness", metavar="EXPR",
                   help="search for a generator word from the seed to this vector")
    p.add_argument("--gens-file", help="JSON list of (-2)-root vectors to use as generators")
    _add_budget_flags(p)
    p.add_argument("--output", "-o", help="write the orbit as JSON to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("embed", help="check an eta variant and optionally map a vector")
    p.add_argument("--matrix-file", help='JSON file {"matrix": [[...], ...]} (16x15)')
    p.add_argument("--vector", help="JSON list of 15 Lfix coordinates to map")
    p.add_argument("--coords", help="JSON vector file of an Lfix vector to map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("saturate", help="saturation of the span of the given vectors")
    p.add_argument("exprs", nargs="*", help="generator expressions")
    p.add_argument("--coords", help="JSON list of vector objects")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("enumerate", help="primitive isotropic vectors in a window")
    ly_blocks = ",".join(name for name, _, _ in build_model()[0].lambda_Y.blocks)
    p.add_argument("--blocks", default=",".join(DEFAULT_WINDOW.blocks),
                   help=f"comma list of LY blocks from {ly_blocks}")
    p.add_argument("--bound", type=int, default=DEFAULT_WINDOW.bound)
    p.add_argument("--limit", type=int, default=0, help="stop after this many (0 = all)")
    p.add_argument("--json", action="store_true", help="one JSON vector per line")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("audit", help="run the claim catalog and write report files")
    _add_budget_flags(p, prefix="budget-")
    p.add_argument("--eta-matrix", help="JSON matrix file for a user-supplied eta variant")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # integers are exact at any size: lift the interpreter's limit on int/str
    # conversion (absent before Python 3.10.7) for the verb, then restore it
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ExpressionError, UsageError, serialize.FormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limited:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
