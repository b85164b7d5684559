"""Command-line front end.

Reads a JSON parameter file (or stdin when the path is "-"), dispatches to
the engines, and prints one machine-readable document.  Output is
deterministic for fixed inputs and seed: keys are sorted, floats carry 17
significant digits, complex values are {"re": .., "im": ..} objects, and
every document embeds the convention, the SHA-256 of the input bytes, and
the library version.

The convention is decided once per request, by `run`, before any
subcommand runs: --convention, else the input's "convention", else
"paper", read by `budgets.convention`.  Every subcommand reports it, and
the ones that evaluate a Wishart law compute under it; mc-verify checks
its identities on sampled matrices and always reports "standard".

Exit codes: 0 success, 2 validation error, 3 numerical error (a singular
matrix, or an overflow to a non-finite value), 4 budget exceeded.

A request loads only what its subcommand uses, and is checked in three
steps.  First its shape: argument parsing, reading the JSON input, the
convention, and the checks on --kind, --order, --seed, --d, on the index
(or permutation) and on the 'h' list's presence and length (exit 2).
Then its budget (exit 4).  Both steps run before numpy is imported; each
subcommand imports its engine after them, then reads the matrices and
computes (exit 2 or 3).  So `necklaces`, and a request rejected by its
shape or its budget, never load numpy.  Every check its engine makes too
is the engine's own rule in `budgets` (the multi-index, the polykay order,
the Sheffer pass, the joint moment, the identity draws), so the two reject
a request with one message; this module prices nothing itself.

Input schema:
    {"n": number,
     "sigma": {"re": [[..]], "im": [[..]]},     # "im" optional (zeros)
     "m_matrix": {..},                          # optional
     "h": [matrix, ..],                         # optional, for joint commands
     "index": [i1, .., im],                     # optional, multi-index
     "convention": "paper" | "standard"}        # optional, default "paper"
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import numbers
import sys
from typing import TYPE_CHECKING

from . import __version__, budgets
from .errors import (
    BudgetExceededError,
    NumericalError,
    ValidationError,
    WishmomError,
)

if TYPE_CHECKING:
    import numpy as np

    from .model import WishartParams

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# canonical JSON / CSV emission
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        # every input is validated finite, so this is an overflow
        raise NumericalError("non-finite value in output")
    s = format(float(x), ".17g")
    return s if ("." in s or "e" in s or "E" in s) else s + ".0"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out = io.StringIO()

    def emit(o):
        if isinstance(o, dict):
            out.write("{")
            for k, key in enumerate(sorted(o)):
                if k:
                    out.write(",")
                out.write(json.dumps(str(key)))
                out.write(":")
                emit(o[key])
            out.write("}")
        elif isinstance(o, (list, tuple)):
            out.write("[")
            for k, v in enumerate(o):
                if k:
                    out.write(",")
                emit(v)
            out.write("]")
        elif isinstance(o, bool) or o is None:
            out.write(json.dumps(o))
        elif isinstance(o, numbers.Integral):
            out.write(str(int(o)))
        elif isinstance(o, numbers.Real):
            out.write(_fmt_float(float(o)))
        elif isinstance(o, str):
            out.write(json.dumps(o))
        else:
            raise ValidationError(f"cannot serialize {type(o).__name__}")

    emit(obj)
    return out.getvalue()


def _cnum(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _csv_table(rows: list[dict]) -> str:
    """CSV with a mandatory header; complex values arrive pre-flattened."""
    if not rows:
        return "\n"
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(_fmt_float(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _flatten_complex(rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        flat = {}
        for k, v in row.items():
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                flat[k + "_re"] = v["re"]
                flat[k + "_im"] = v["im"]
            else:
                flat[k] = v
        out.append(flat)
    return out


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _read_input(path: str) -> tuple[dict, str]:
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed JSON input: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("input document must be a JSON object")
    return doc, hashlib.sha256(raw).hexdigest()


def _matrix_from(obj, name: str) -> np.ndarray:
    import numpy as np

    if not isinstance(obj, dict) or "re" not in obj:
        raise ValidationError(f"{name} must be an object with a 're' matrix")
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a rectangular array of numbers: {exc}") from exc
    if re.shape != im.shape:
        raise ValidationError(f"{name}: re/im shapes differ")
    return re + 1j * im


def _params_from(doc: dict, convention: str) -> WishartParams:
    from . import model

    if "n" not in doc or "sigma" not in doc:
        raise ValidationError("input needs 'n' and 'sigma'")
    n = budgets.positive_real(doc["n"], "'n'")
    sigma = _matrix_from(doc["sigma"], "sigma")
    m_matrix = _matrix_from(doc["m_matrix"], "m_matrix") if "m_matrix" in doc else None
    params, _ = model.build(n, sigma, m_matrix, convention)
    return params


def _h_count(doc: dict) -> int:
    """Length of the 'h' list of direction matrices, read without numpy."""
    hs = doc.get("h")
    if not hs or not isinstance(hs, list):
        raise ValidationError("this command needs an 'h' list of direction matrices")
    return len(hs)


def _h_list(doc: dict) -> list[np.ndarray]:
    _h_count(doc)
    return [_matrix_from(hk, f"h[{k}]") for k, hk in enumerate(doc["h"])]


def _option_integers(text: str, name: str) -> tuple[int, ...]:
    """Comma-separated integers, each parsed by int() as argparse parses
    --order, then read by `budgets.integer_tuple`."""
    try:
        return budgets.integer_tuple([int(v) for v in text.split(",")], name)
    except ValueError as exc:
        raise ValidationError(f"{name} must be comma-separated integers: {text!r}") from exc


def _index_from(doc: dict, args) -> tuple[int, ...]:
    """The multi-index (or permutation images) of --index or the input's
    'index' entry: non-negative integers."""
    if args.index is not None:
        return _option_integers(args.index, "--index")
    if "index" in doc:
        return budgets.integer_tuple(doc["index"], "index")
    raise ValidationError("this command needs --index or an 'index' entry")


def _orders(args) -> range:
    if args.order < 1:
        raise ValidationError(f"--order must be >= 1: {args.order}")
    return range(1, args.order + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each subcommand receives the request's convention, checks the rest of its
# shape and then its budget, imports its engine after those checks, which
# need no numpy, and looks the engine function up on the module at call
# time, so a rebound module attribute (a wrapper or a test double) is
# honoured.  It returns its results.

def _cmd_sequence(doc, args, convention, sequence: str, check_order):
    orders = _orders(args)
    check_order(args.order)
    params = _params_from(doc, convention)
    from . import univariate

    seq = getattr(univariate, sequence)(params, args.order)
    rows = [{"order": k, "value": _cnum(seq.order(k))} for k in orders]
    return {"orders": rows}


def _cmd_joint(doc, args, convention, of_index: str, check_index):
    index = budgets.multi_index(_index_from(doc, args), _h_count(doc))
    check_index(index)
    h = _h_list(doc)
    params = _params_from(doc, convention)
    from . import multivariate

    value = getattr(multivariate, of_index)(params, h, index)
    return {"index": list(index), "value": _cnum(value)}


def _cmd_generalized(doc, args, convention):
    from . import combinatorics

    images = _index_from(doc, args)  # one-line permutation images
    perm = combinatorics.CyclePermutation.from_images(images)
    combinatorics.CyclePermutation.checked(perm, _h_count(doc))
    budgets.check_expansion_positions(perm.size)
    h = _h_list(doc)
    params = _params_from(doc, convention)
    from . import multivariate

    expansion = multivariate.generalized_moment_expansion(params, h, perm)
    terms = []
    for term in expansion.terms:
        terms.append({
            "factors": [{
                "assignment": f.assignment,
                "cycle": list(f.cycle),
                "value": None if f.symbolic else _cnum(f.value),
            } for f in term.factors],
            "value": None if term.symbolic else _cnum(term.value),
        })
    return {
        "permutation": list(images),
        "evaluated_sum": _cnum(expansion.evaluated_sum),
        "fully_evaluated": expansion.fully_evaluated,
        "symbolic_factor_count": len(expansion.symbolic_factors),
        "terms": terms,
    }


def _cmd_permanent(doc, args, convention):
    if "sigma" not in doc:
        raise ValidationError("permanent needs the matrix in 'sigma'")
    try:
        d = complex(args.d) if args.d is not None else 1 + 0j
    except ValueError as exc:
        raise ValidationError(f"--d must be a complex number: {args.d!r}") from exc
    master = args.index is not None or "index" in doc
    if master:
        index = _index_from(doc, args)
        budgets.check_joint_weight(sum(index))
    elif isinstance(doc["sigma"], dict) and isinstance(doc["sigma"].get("re"), list):
        budgets.check_permanent_dimension(len(doc["sigma"]["re"]))
    y = _matrix_from(doc["sigma"], "sigma")
    from . import applications

    if master:
        value = applications.permanent_master(y, index, d)
        result = {"route": "master", "index": list(index), "value": _cnum(value)}
    else:
        value = applications.permanent_d(y, d)
        result = {"route": "brute-force", "value": _cnum(value)}
    result["d"] = _cnum(d)
    return result


def _cmd_polykay(doc, args, convention):
    if "sigma" not in doc:
        raise ValidationError("polykay needs a Hermitian matrix in 'sigma'")
    orders = _orders(args)
    budgets.check_polykay_order(args.order)
    x = _matrix_from(doc["sigma"], "sigma")
    from . import applications, matrix_core

    if not matrix_core.is_hermitian(x):
        raise ValidationError("polykay needs a Hermitian matrix")
    vals, _ = matrix_core.hermitian_eigen(x)
    sample = applications.PolykaySample.from_eigenvalues(vals)
    rows = [{"order": k, "value": applications.polykay(sample, k)}
            for k in orders]
    return {"eigenvalues": [float(v) for v in vals], "orders": rows}


def _cmd_necklaces(doc, args, convention):
    from . import combinatorics

    if args.kind is None:
        raise ValidationError("necklaces needs --kind i1,i2,...")
    kind = _option_integers(args.kind, "--kind")
    rows = []
    for neck in combinatorics.necklaces_of_kind(kind):
        rows.append({
            "representative": neck.word,
            "block_length": neck.block_length,
            "repetitions": neck.repetitions,
            "lyndon": neck.is_lyndon,
            "rotations": ["".join(str(s) for s in rot)
                          for rot in combinatorics.necklace_rotations(neck)],
        })
    return {"kind": list(kind), "necklaces": rows}


def _cmd_mc_verify(doc, args, convention):
    seed = budgets.integer(args.seed, "--seed")
    if args.n2 is not None and budgets.integer(args.n2, "--n2") < 1:
        raise ValidationError(f"--n2 must be >= 1: {args.n2}")
    sigma = doc.get("sigma")
    if isinstance(sigma, dict) and isinstance(sigma.get("re"), list):
        budgets.check_identity_draws(len(sigma["re"]), args.samples, "mc-verify")
    params = _params_from(doc, convention)
    from . import mc, model

    stream = mc.RngStream(seed, 0)
    n2 = args.n2 if args.n2 is not None else int(params.n)
    if args.identity == "df-additivity":
        p1, _ = model.build(params.n, params.sigma, None, convention)
        p2, _ = model.build(n2, params.sigma, None, convention)
    elif args.identity == "sheffer":
        p1, _ = model.build(params.n, params.sigma, params.m_matrix, convention)
        p2, _ = model.build(n2, params.sigma, None, convention)
    else:  # m-split, half of M on each block
        p1, _ = model.build(params.n, params.sigma, params.m_matrix / 2, convention)
        p2, _ = model.build(n2, params.sigma, params.m_matrix / 2, convention)
    return mc.distribution_identity_check(p1, p2, args.identity, args.samples, stream)


_COMMANDS = {
    "moments": (lambda doc, args, convention: _cmd_sequence(
        doc, args, convention, "moment_sequence",
        lambda order: budgets.check_sheffer_passes(order, "moment sequence to")), True),
    "cumulants": (lambda doc, args, convention: _cmd_sequence(
        doc, args, convention, "cumulant_sequence", budgets.check_cumulant_order), True),
    "joint-moments": (lambda doc, args, convention: _cmd_joint(
        doc, args, convention, "joint_moment", budgets.check_joint_moment), True),
    "joint-cumulants": (lambda doc, args, convention: _cmd_joint(
        doc, args, convention, "joint_cumulant",
        lambda index: budgets.check_joint_weight(sum(index))), True),
    "generalized": (_cmd_generalized, True),
    "permanent": (_cmd_permanent, True),
    "polykay": (_cmd_polykay, True),
    "necklaces": (_cmd_necklaces, False),
    "mc-verify": (_cmd_mc_verify, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wishmom",
        description="Trace moments and cumulants of complex Wishart matrices.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("params_file", nargs="?", default=None,
                        help="JSON parameter file, or - for stdin")
    parser.add_argument("--order", type=int, default=3,
                        help="highest order for scalar sequences (default 3)")
    parser.add_argument("--index", default=None,
                        help="comma-separated multi-index (or permutation images)")
    parser.add_argument("--kind", default=None,
                        help="necklace kind, comma-separated symbol counts")
    parser.add_argument("--d", default=None,
                        help="permanent parameter d, python complex syntax")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--identity", choices=budgets.IDENTITIES, default="sheffer")
    parser.add_argument("--n2", type=int, default=None,
                        help="second block size for mc-verify (default: n)")
    parser.add_argument("--convention", default=None,
                        metavar="{" + ",".join(budgets.CONVENTIONS) + "}",
                        help="override the input file's convention (default paper; "
                             "mc-verify always uses standard)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(argv) -> tuple[int, str]:
    """Execute a job; returns (exit_code, output_document)."""
    args = _build_parser().parse_args(argv)
    handler, needs_file = _COMMANDS[args.command]
    try:
        if needs_file:
            if args.params_file is None:
                raise ValidationError(f"{args.command} needs a params file")
            doc, digest = _read_input(args.params_file)
        elif args.params_file is not None:
            doc, digest = _read_input(args.params_file)
        else:
            doc, digest = {}, None
        convention = budgets.convention(
            doc.get("convention", "paper") if args.convention is None else args.convention)
        if args.command == "mc-verify":
            convention = "standard"  # its identities are checked on sampled matrices
        results = handler(doc, args, convention)
        envelope = {
            "command": args.command,
            "convention": convention,
            "input_sha256": digest,
            "library_version": __version__,
            "results": results,
        }
        if args.command == "mc-verify":
            envelope["seed"] = args.seed
        if args.format == "csv":
            rows = _rows_for_csv(args.command, results)
            for row in rows:
                row["convention"] = convention
            return 0, _csv_table(_flatten_complex(rows))
        return 0, canonical_json(envelope) + "\n"
    except BudgetExceededError as exc:
        return EXIT_BUDGET, f"budget exceeded: {exc}\n"
    except NumericalError as exc:
        return EXIT_NUMERICAL, f"numerical error: {type(exc).__name__}: {exc}\n"
    except (ValidationError, WishmomError) as exc:
        return EXIT_VALIDATION, f"validation error: {exc}\n"


def _rows_for_csv(command: str, results: dict) -> list[dict]:
    if "orders" in results:
        return [dict(row) for row in results["orders"]]
    if command == "necklaces":
        return [{k: row[k] for k in ("representative", "block_length", "repetitions")}
                for row in results["necklaces"]]
    if "value" in results:
        return [{"value": results["value"]}]
    if command == "generalized":
        return [{k: results[k] for k in ("evaluated_sum", "fully_evaluated",
                                         "symbolic_factor_count")}]
    raise ValidationError(f"no CSV table defined for {command}")


def main(argv=None) -> int:
    code, output = run(sys.argv[1:] if argv is None else argv)
    if code == 0:
        sys.stdout.write(output)
    else:
        sys.stderr.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
