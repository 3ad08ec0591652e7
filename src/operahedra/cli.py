"""Command-line surface: generate skeletons, run checks, emit certificates.

Exit codes: 0 success/certified, 1 refuted or counterexample found, 2 bad
input or parse error, 3 certificate rejected, 4 inconclusive (including a
certificate the generator could not build).  Reports are
canonical JSON (sorted keys, no timing) so identical inputs produce byte-
identical files; wall-clock timing goes to stderr.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import complexes, coherence, geometry, trees
from .errors import (
    CertificateRejectedError,
    EngineError,
    GeneratorError,
    NotGenericError,
    ParseError,
)
from .homotopy import Certificate, verify_certificate
from .skeleton import build_skeleton

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_REJECTED = 3
EXIT_INCONCLUSIVE = 4


def _write_atomic(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _hash_obj(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _report(args, payload, inputs):
    report = {
        "schema": "v1",
        "command": payload.get("command"),
        "inputs": {k: _hash_obj(v) for k, v in inputs.items()},
        **payload,
    }
    text = _dump(report)
    if getattr(args, "report", None):
        _write_atomic(args.report, text)
    sys.stdout.write(text)
    return report


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _object_from_args(args):
    """(tree, None) from --linear, --corolla-children or --tree, or
    (None, expr) from --expr or --maclane, not yet unfolded."""
    names = ("linear", "corolla_children", "tree", "expr", "maclane")
    if sum(getattr(args, name, None) is not None for name in names) != 1:
        raise ParseError(
            "choose exactly one of --linear, --corolla-children, --tree, --expr, --maclane"
        )
    if args.linear is not None:
        return trees.PlanarTree.linear(args.linear), None
    if args.corolla_children is not None:
        return trees.PlanarTree.corolla(args.corolla_children), None
    if args.tree is not None:
        return trees.PlanarTree.from_json(_load_json(args.tree)), None
    if getattr(args, "expr", None) is not None:
        return None, trees.parse_expression(args.expr)
    return None, coherence.maclane_parse(args.maclane)


def _tree_from_args(args):
    tree, expr = _object_from_args(args)
    if tree is None:
        tree, _ = trees.expression_to_nesting(expr)
    return tree, expr


def _add_tree_flags(p, with_expr=False):
    p.add_argument("--linear", type=int, metavar="P")
    p.add_argument("--corolla-children", type=int, metavar="K")
    p.add_argument("--tree", metavar="FILE")
    if with_expr:
        p.add_argument("--expr", metavar="TEXT")
        p.add_argument("--maclane", metavar="WORD")


def _complex_from_args(args):
    """(complex, points-or-None, description) from tree/fixture/complex flags."""
    if getattr(args, "fixture", None):
        if args.fixture not in complexes.FIXTURES:
            raise ParseError(f"unknown fixture {args.fixture!r}")
        c, points = complexes.FIXTURES[args.fixture]()
        return c, points, {"fixture": args.fixture}
    if getattr(args, "complex", None):
        c = complexes.Complex2.from_json(_load_json(args.complex))
        return c, None, {"complex": c.to_json()}
    tree, _ = _tree_from_args(args)
    sk = build_skeleton(tree)
    return sk.complex, sk, {"tree": tree.to_json()}


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args):
    c, extra, inputs = _complex_from_args(args)
    complexes.validate(c)
    payload = {
        "command": "gen",
        "vertices": c.vertex_count,
        "edges": len(c.edges),
        "cells": len(c.cells),
    }
    if hasattr(extra, "f_vector"):  # a skeleton
        payload["f_vector"] = list(extra.f_vector())
        payload["shapes"] = extra.shape_counts()
        if args.dot:
            _write_atomic(args.dot, extra.to_dot())
    if args.complex_out:
        _write_atomic(args.complex_out, _dump(c.to_json()))
    if args.realization:
        if isinstance(extra, dict):
            points = extra
        elif hasattr(extra, "tree"):
            points = geometry.realize_linear(extra)
        else:
            raise ParseError("no realization available for a raw complex")
        _write_atomic(args.realization, _dump(geometry.realization_to_json(points)))
    _report(args, payload, inputs)
    return EXIT_OK


def _tree_jobs(args):
    if getattr(args, "all_trees", None):
        out = []
        for p in range(1, args.all_trees + 1):
            out.extend(trees.enumerate_ordered_trees(p))
        return out
    return None


def _morse_one_tree(tree):
    sk = build_skeleton(tree)
    result = complexes.morse_certificate(sk.complex, sk.orientation)
    ok = isinstance(result, complexes.MorseCertificate)
    return {
        "tree": tree.shape_string(),
        "certified": ok,
        "detail": None if ok else {"condition": result.condition},
    }


def cmd_check_morse(args):
    batch = _tree_jobs(args)
    if batch is not None:
        jobs = min(args.jobs, os.cpu_count() or 1, len(batch))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_morse_one_tree, batch))
        else:
            results = [_morse_one_tree(t) for t in batch]
        ok = all(r["certified"] for r in results)
        _report(
            args,
            {"command": "check.morse", "trees": len(results), "all_certified": ok,
             "failures": [r for r in results if not r["certified"]]},
            {"all_trees": args.all_trees},
        )
        return EXIT_OK if ok else EXIT_REFUTED

    if getattr(args, "fixture", None) and args.samples:
        if args.fixture not in complexes.FIXTURES:
            raise ParseError(f"unknown fixture {args.fixture!r}")
        c, points = complexes.FIXTURES[args.fixture]()
        rng = random.Random(args.seed)
        outcomes = []
        for _ in range(args.samples):
            vec = geometry.random_generic_vector(c, points, rng)
            result = geometry.polytope_morse_check(c, points, vec)
            ok = isinstance(result, complexes.MorseCertificate)
            outcomes.append(
                {
                    "vector": [str(x) for x in vec],
                    "certified": ok,
                    "condition": None if ok else result.condition,
                }
            )
        all_fail = all(not o["certified"] for o in outcomes)
        _report(
            args,
            {"command": "check.morse", "fixture": args.fixture,
             "samples": outcomes, "all_counterexamples": all_fail},
            {"fixture": args.fixture, "seed": args.seed},
        )
        return EXIT_REFUTED if all_fail else EXIT_OK

    c, extra, inputs = _complex_from_args(args)
    complexes.validate(c)
    if getattr(args, "orientation", None):
        orientation = tuple(_load_json(args.orientation))
    elif hasattr(extra, "orientation"):
        orientation = extra.orientation
    else:
        raise ParseError("an orientation is required for a raw complex")
    result = complexes.morse_certificate(c, orientation)
    ok = isinstance(result, complexes.MorseCertificate)
    payload = {"command": "check.morse", "certified": ok}
    if ok:
        payload["global_sink"] = result.global_sink
    else:
        payload["counterexample"] = {
            "condition": result.condition,
            "witness": _jsonable(result.witness),
        }
    _report(args, payload, inputs)
    return EXIT_OK if ok else EXIT_REFUTED


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def cmd_check_homology(args):
    c, _, inputs = _complex_from_args(args)
    complexes.validate(c)
    rep = complexes.homology(c)
    simply = rep.betti1 == 0 and not rep.torsion1
    _report(
        args,
        {
            "command": "check.homology",
            "betti": [rep.betti0, rep.betti1, rep.betti2],
            "torsion1": list(rep.torsion1),
            "euler": rep.euler,
            "h1_trivial": simply,
        },
        inputs,
    )
    return EXIT_OK if simply else EXIT_REFUTED


def cmd_check_confluence(args):
    batch = _tree_jobs(args)
    targets = batch if batch is not None else [_tree_from_args(args)[0]]
    rng = random.Random(args.seed)
    all_ok = True
    results = []
    for tree in targets:
        rep = coherence.check_local_confluence(tree)
        newman_ok = True
        if tree.p >= 2 and args.strategies:
            expr = trees.nesting_to_expression(
                tree, trees.enumerate_maximal_nestings(tree)[0]
            )
            sink, _ = coherence.normal_form(expr)
            newman_ok = all(
                coherence.random_normal_form(expr, rng) == sink
                for _ in range(args.strategies)
            )
        ok = rep.all_joinable and newman_ok
        all_ok = all_ok and ok
        results.append(
            {
                "tree": tree.shape_string(),
                "faces": rep.faces,
                "joinable": rep.joinable,
                "by_shape": rep.by_shape,
                "newman_consistent": newman_ok,
            }
        )
    _report(
        args,
        {"command": "check.confluence", "results": results, "all_joinable": all_ok},
        {"seed": args.seed},
    )
    return EXIT_OK if all_ok else EXIT_REFUTED


def _load_word(args, attr, expr, tree):
    """(word, tree): the word named by ``args.<attr>``, and the tree of the
    object.  A tree not known yet is read off a sugared word's walk; a word
    file, which carries its own object, must live on it."""
    value = getattr(args, attr)
    if value.endswith(".json") or os.path.exists(value):
        word = coherence.word_from_json(_load_json(value))
        if tree is None:
            tree, _ = trees.expression_to_nesting(expr)
        if coherence.word_to_path(word)[0].tree.children != tree.children:
            raise ParseError(f"{value}: word object does not live on the given tree")
        return word, tree
    if expr is None:
        raise ParseError("sugared words need --expr or --maclane for the object")
    word = coherence.parse_word_text(expr, value)
    return word, coherence.word_to_path(word)[0].tree


def cmd_check_coherence(args, require_cert=False):
    tree, expr = _object_from_args(args)
    w1, tree = _load_word(args, "w1", expr, tree)
    w2, _ = _load_word(args, "w2", expr, tree)
    expr = w1.expr
    verdict = coherence.decide_coherence(w1, w2)
    if args.emit_cert:
        _write_atomic(args.emit_cert, _dump(verdict.certificate.to_json()))
    elif require_cert:
        raise ParseError("witness requires --emit-cert")
    _report(
        args,
        {
            "command": "check.coherence",
            "equal": verdict.equal,
            "statistics": verdict.statistics,
        },
        {"object": str(expr), "w1": w1.to_json(), "w2": w2.to_json()},
    )
    return EXIT_OK


def cmd_check_verify(args):
    c = complexes.Complex2.from_json(_load_json(args.complex))
    complexes.validate(c)
    cert = Certificate.from_json(_load_json(args.cert))
    result = verify_certificate(c, cert)
    _report(
        args,
        {
            "command": "check.verify",
            "ok": result.ok,
            "reject_index": result.reject_index,
            "reason": result.reason,
        },
        {"complex": c.to_json()},
    )
    return EXIT_OK if result.ok else EXIT_REJECTED


def cmd_geom_orient(args):
    tree, _ = _tree_from_args(args)
    sk = build_skeleton(tree)
    points = geometry.realize_linear(sk)
    vec = tuple(Fraction(part) for part in args.vec.split(","))
    orientation = geometry.induced_orientation(sk.complex, points, vec)
    agrees = orientation == sk.orientation
    result = complexes.morse_certificate(sk.complex, orientation)
    certified = isinstance(result, complexes.MorseCertificate)
    if args.emit_orientation:
        _write_atomic(args.emit_orientation, _dump(list(orientation)))
    if args.realization:
        _write_atomic(args.realization, _dump(geometry.realization_to_json(points)))
    _report(
        args,
        {
            "command": "geom.orient",
            "vector": [str(x) for x in vec],
            "matches_rewrite_orientation": agrees,
            "morse_certified": certified,
        },
        {"tree": tree.to_json(), "vec": args.vec},
    )
    return EXIT_OK if certified else EXIT_REFUTED


def cmd_normalize(args):
    if args.expr:
        expr = trees.parse_expression(args.expr)
    else:
        expr = coherence.maclane_parse(args.maclane)
    sink, word = coherence.normal_form(expr)
    _report(
        args,
        {
            "command": "normalize",
            "input": str(expr),
            "normal_form": str(sink),
            "trace": word.to_json()["moves"],
        },
        {"expr": str(expr)},
    )
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(prog="operahedra", description=__doc__)
    top.add_argument("--report", metavar="FILE", help="also write the JSON report here")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a skeleton or fixture complex")
    _add_tree_flags(gen, with_expr=True)
    gen.add_argument("--fixture", metavar="NAME")
    gen.add_argument("--complex-out", metavar="FILE", help="write complex.json")
    gen.add_argument("--dot", metavar="FILE", help="write a DOT digraph")
    gen.add_argument("--realization", metavar="FILE")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="run a verification")
    csub = check.add_subparsers(dest="subcommand", required=True)

    morse = csub.add_parser("morse")
    _add_tree_flags(morse, with_expr=True)
    morse.add_argument("--fixture", metavar="NAME")
    morse.add_argument("--complex", metavar="FILE")
    morse.add_argument("--orientation", metavar="FILE")
    morse.add_argument("--samples", type=int, default=0)
    morse.add_argument("--seed", type=int, default=0)
    morse.add_argument("--all-trees", type=int, metavar="P")
    morse.add_argument("--jobs", type=int, default=1)
    morse.set_defaults(func=cmd_check_morse)

    hom = csub.add_parser("homology")
    _add_tree_flags(hom, with_expr=True)
    hom.add_argument("--fixture", metavar="NAME")
    hom.add_argument("--complex", metavar="FILE")
    hom.set_defaults(func=cmd_check_homology)

    conf = csub.add_parser("confluence")
    _add_tree_flags(conf, with_expr=True)
    conf.add_argument("--all-trees", type=int, metavar="P")
    conf.add_argument("--strategies", type=int, default=0)
    conf.add_argument("--seed", type=int, default=0)
    conf.set_defaults(func=cmd_check_confluence)

    cohp = csub.add_parser("coherence")
    _add_tree_flags(cohp, with_expr=True)
    cohp.add_argument("--w1", required=True, help="word file or sugar text")
    cohp.add_argument("--w2", required=True)
    cohp.add_argument("--emit-cert", metavar="FILE")
    cohp.set_defaults(func=cmd_check_coherence)

    ver = csub.add_parser("verify")
    ver.add_argument("--complex", required=True, metavar="FILE")
    ver.add_argument("--cert", required=True, metavar="FILE")
    ver.set_defaults(func=cmd_check_verify)

    geom = sub.add_parser("geom")
    gsub = geom.add_subparsers(dest="subcommand", required=True)
    orient = gsub.add_parser("orient")
    _add_tree_flags(orient, with_expr=True)
    orient.add_argument("--vec", required=True, help="comma-separated rationals")
    orient.add_argument("--emit-orientation", metavar="FILE")
    orient.add_argument("--realization", metavar="FILE")
    orient.set_defaults(func=cmd_geom_orient)

    norm = sub.add_parser("normalize")
    norm.add_argument("--expr", metavar="TEXT")
    norm.add_argument("--maclane", metavar="WORD")
    norm.set_defaults(func=cmd_normalize)

    wit = sub.add_parser("witness", help="emit a coherence certificate")
    _add_tree_flags(wit, with_expr=True)
    wit.add_argument("--w1", required=True)
    wit.add_argument("--w2", required=True)
    wit.add_argument("--emit-cert", required=True, metavar="FILE")
    wit.set_defaults(func=lambda a: cmd_check_coherence(a, require_cert=True))

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except (EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotGenericError):
            return EXIT_REFUTED
        if isinstance(exc, CertificateRejectedError):
            return EXIT_REJECTED
        if isinstance(exc, GeneratorError):
            return EXIT_INCONCLUSIVE
        return EXIT_INPUT
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
