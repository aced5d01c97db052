"""Command line front end: homology runs, Galois checks, law suites.

Every command assembles a RunReport; `--json` prints it as one JSON
document, otherwise a short human-readable summary.  The exit code is 0
exactly when everything requested completed and every cross-check
passed.  The environment variable HOPFGAL_MAX_ORDER tightens or relaxes
the group-order ceilings used by the bar oracle and the verify corpus.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from math import prod

from . import __version__
from .abelian import PrimeSet
from .bar import homology, max_order_for
from .checks import presentation_for, run_suite
from .corpus import (group_from_json, is_integer, named_group,
                     product_orders)
from .errors import SizeLimitError, ValidationError
from .galois import (GaloisContext, centralize, characterisation_normal,
                     galois_group, is_normal_ext, is_trivial_ext)
from .groups import MAX_ORDER, GroupHom
from .hopf import hopf_pi_n, parse_presentation


def _env_max_order(default):
    raw = os.environ.get("HOPFGAL_MAX_ORDER")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError("HOPFGAL_MAX_ORDER must be an integer, got %r"
                              % raw)
    return _positive(value, "HOPFGAL_MAX_ORDER")


def _positive(value, what):
    if value < 1:
        raise ValidationError("%s must be positive" % what)
    return value


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


class RunReport:
    """Self-contained record of one command invocation."""

    __slots__ = ("command", "inputs", "results", "timings", "flags", "ok")

    def __init__(self, command):
        self.command = list(command)
        self.inputs = {}
        self.results = {}
        self.timings = {}
        self.flags = {}
        self.ok = True

    def time(self, key, started):
        self.timings[key] = round(time.time() - started, 3)

    def to_json(self):
        return {"command": self.command, "engine_version": __version__,
                "inputs": self.inputs, "results": self.results,
                "timings": self.timings, "flags": self.flags, "ok": self.ok}

    def render(self, as_json, out=None):
        out = sys.stdout if out is None else out
        if as_json:
            json.dump(self.to_json(), out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            for key in sorted(self.results):
                out.write("%s: %s\n" % (key, self.results[key]))
            for key in sorted(self.flags):
                out.write("%s: %s\n" % (key, self.flags[key]))
            out.write("ok: %s\n" % self.ok)


def _parse_primes(text):
    try:
        primes = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError("--primes wants a comma-separated integer "
                              "list, got %r" % text)
    return PrimeSet(primes)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError("%s is not UTF-8 text: %s" % (path, exc))


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer with too many digits, or nesting
        # deeper than the decoder's recursion limit
        raise ValidationError("%s is not valid JSON: %s" % (path, exc))


def _factors_json(value):
    return None if value is None else value.to_json()


# ---- homology --------------------------------------------------------------

def _load_homology_inputs(args, report):
    """Resolve (presentation or None, group or None) from the flags.

    A group, named or read from a file, is built only for the bar engine,
    and a product name is held to the bar bound of the degree before its
    table is built.  The Hopf engine reads no group: under `--method
    hopf` a `--group` file is only read and digested.  An engine that
    lacks its input is an error here, before either engine runs.
    """
    if not (args.named or args.presentation or args.group):
        raise ValidationError("need --named, --presentation or --group")
    pres = group = None
    bound = None
    if args.method in ("bar", "both"):
        bound = max_order_for(args.degree, _env_max_order(None))
    if args.named:
        report.inputs["named"] = args.named
        if bound is not None:
            group = named_group(args.named, bound)
        if args.method in ("hopf", "both"):
            pres = presentation_for(args.named)
    if args.presentation:
        pres = parse_presentation(_read_text(args.presentation))
        report.inputs["presentation"] = pres.input_digest()
    if args.group:
        obj = _read_json(args.group)
        report.inputs["group"] = _digest(obj)
        if bound is not None:
            group = group_from_json(obj, bound)
    if args.method in ("hopf", "both") and pres is None:
        raise ValidationError("the hopf engine needs a presentation "
                              "(--presentation, or --named with a "
                              "presented corpus group)")
    if args.method in ("bar", "both") and group is None:
        raise ValidationError("the bar engine needs a finite group "
                              "(--named or --group)")
    return pres, group


def cmd_homology(args, argv):
    report = RunReport(argv)
    primes = _parse_primes(args.primes)
    report.inputs["degree"] = args.degree
    report.inputs["method"] = args.method
    report.inputs["primes"] = list(primes)
    pres, group = _load_homology_inputs(args, report)

    if args.method in ("hopf", "both"):
        started = time.time()
        result = hopf_pi_n(pres, args.degree - 1, primes)
        report.time("hopf", started)
        report.results["hopf"] = _factors_json(result.value)
        report.flags["stabilization"] = result.stabilization
        if result.stabilization == "UNSTABLE":
            report.ok = False
    if args.method in ("bar", "both"):
        started = time.time()
        value = homology(group, args.degree, _env_max_order(None))
        if primes.primes:
            value = value.quotient_by_torsion(primes)
        report.time("bar", started)
        report.results["bar"] = _factors_json(value)
    if args.method == "both":
        agree = (report.results["hopf"] == report.results["bar"]
                 and report.flags.get("stabilization") != "UNSTABLE")
        report.flags["agreement"] = agree
        if not agree:
            report.ok = False
    return report


# ---- galois ----------------------------------------------------------------

def _hom_from_file(path):
    """The hom of a `--hom` file; a domain or codomain given by name is
    held to `groups.MAX_ORDER` before its table is built, and a domain
    named as a product is checked against the mapping's length first."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("hom file must hold a JSON object")
    for key in ("domain", "codomain", "mapping"):
        if key not in obj:
            raise ValidationError("hom file needs %r" % key)
    mapping = obj["mapping"]
    if not (isinstance(mapping, list) and all(map(is_integer, mapping))):
        raise ValidationError("'mapping' must be a list of integers")
    domain = obj["domain"]
    if isinstance(domain, dict) and isinstance(domain.get("name"), str):
        orders = product_orders(domain["name"], MAX_ORDER)
        if orders is not None and prod(orders) != len(mapping):
            raise ValidationError("mapping length mismatch")
    dom = group_from_json(domain, MAX_ORDER)
    cod = group_from_json(obj["codomain"], MAX_ORDER)
    return GroupHom(dom, cod, mapping), obj


def cmd_galois(args, argv):
    report = RunReport(argv)
    primes = _parse_primes(args.primes)
    ctx = GaloisContext(primes)
    f, raw = _hom_from_file(args.hom)
    report.inputs["hom"] = _digest(raw)
    report.inputs["primes"] = list(primes)
    started = time.time()
    if args.question == "is-trivial":
        report.results["trivial"] = is_trivial_ext(ctx, f)
    elif args.question == "is-normal":
        report.results["normal"] = is_normal_ext(ctx, f)
    elif args.question == "characterisation":
        report.results["normal"] = characterisation_normal(ctx, f)
    elif args.question == "group":
        value = galois_group(ctx, f)
        report.results["galois_group"] = _factors_json(value)
    else:
        f1, unit = centralize(ctx, f)
        report.results["centralized_domain_order"] = f1.domain.order
        report.results["centralized_kernel"] = _factors_json(
            f1.kernel().as_group()[0].abelian_invariants())
        report.flags["unit_surjective"] = unit.is_surjective()
    report.time(args.question, started)
    return report


# ---- verify ----------------------------------------------------------------

def cmd_verify(args, argv):
    report = RunReport(argv)
    max_order = _positive(_env_max_order(args.max_order), "--max-order")
    report.inputs["suites"] = args.suite
    report.inputs["seed"] = args.seed
    report.inputs["max_order"] = max_order
    started = time.time()
    suites = run_suite(args.suite, seed=args.seed, max_order=max_order)
    report.time("verify", started)
    for suite in suites:
        report.results[suite.name] = suite.summary()
        if suite.failures:
            report.flags[suite.name + "_failures"] = suite.failures[:10]
            report.ok = False
    return report


# ---- entry point -----------------------------------------------------------

@functools.cache
def _build_parser():
    # built on the first call of main, not at import, and reused: each
    # parse_args starts from a fresh namespace
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact Hopf-formula homology with a bar-resolution "
                    "oracle and categorical Galois checks.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="compute group homology")
    hom.add_argument("--named", help="corpus group name, e.g. V4 or Z12")
    hom.add_argument("--presentation", help="presentation text file")
    hom.add_argument("--group", help="finite group JSON file")
    hom.add_argument("--degree", type=int, default=2, choices=(1, 2, 3))
    hom.add_argument("--method", default="both",
                     choices=("bar", "hopf", "both"))
    hom.add_argument("--primes", default="",
                     help="quotient away torsion at these primes, e.g. 2,3")

    gal = sub.add_parser("galois", help="extension-level Galois checks")
    gal.add_argument("question",
                     choices=("is-trivial", "is-normal", "centralize",
                              "group", "characterisation"))
    gal.add_argument("--hom", required=True,
                     help="JSON file with domain, codomain, mapping")
    gal.add_argument("--primes", default="",
                     help="compose with the torsion-free reflector at "
                          "these primes")

    ver = sub.add_parser("verify", help="run law and cross-check suites")
    ver.add_argument("--suite", action="append", default=None,
                     help="suite name, repeatable; 'all' or 'none'")
    ver.add_argument("--seed", type=int, default=20260814)
    ver.add_argument("--max-order", type=int, default=12, dest="max_order")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite is None:
        args.suite = ["all"]
    try:
        if args.command == "homology":
            report = cmd_homology(args, argv)
        elif args.command == "galois":
            report = cmd_galois(args, argv)
        else:
            report = cmd_verify(args, argv)
    except (ValidationError, SizeLimitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report.render(args.json)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
