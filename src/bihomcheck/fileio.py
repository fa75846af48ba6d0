"""Bundle and report file formats.

Bundles are UTF-8 JSON with a top-level "schema" field:

    {
      "schema": 1,
      "dim": 2,
      "basis": ["e1", "e2"],
      "ring": {"params": ["k1", "k2"], "constraints": ["(k1 - 1)*k2"]},
      "ops":  {"mul": {"arity": 2, "entries": [[0, 0, 1, "1"]]}},
      "maps": {"a": [["1", "0"], ["k2", "1"]]},
      "provenance": {...},          # optional, free-form
      "catalog": {...}              # optional, catalog entries only
    }

An ops entry [i1, .., ir, k, coeff] says: the k-th coordinate of the value on
basis tuple (i1, .., ir) is coeff. Maps are row-major matrices of coefficient
strings (column j = image of basis vector j). Coefficients use the scalar
grammar. Unknown top-level or section fields are rejected.

Reports serialize with sorted keys and sorted verdicts so a fixed input and
seed produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .bundle import AlgebraBundle, Ring
from .dsl import parse_identities, parse_identity_file
from .errors import BihomError, BundleFormatError, UnknownParameter
from .linear import BasisSpace, LinMap, MultiOp
from .scalars import Scalar, parse_scalar

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema", "dim", "basis", "ring", "ops", "maps", "provenance", "catalog"}
_RING_FIELDS = {"params", "constraints"}
_OP_FIELDS = {"arity", "entries"}


def bundle_from_dict(data: dict) -> AlgebraBundle:
    try:
        return _bundle_from_dict(data)
    except BihomError:
        raise
    except KeyError as exc:
        raise BundleFormatError(f"missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise BundleFormatError(f"malformed bundle: {exc}") from None


def _json(value, kind: type, what: str):
    """value, which must be a JSON array (kind list) or integer (kind int): a
    string would iterate as an array, and int() reads 0.9, "2" and true."""
    if type(value) is not kind:
        raise BundleFormatError(f"{what} must be a JSON {'array' if kind is list else 'integer'}")
    return value


def op_constants(name: str, entries, arity: int, dim: int, params: tuple) -> dict:
    """The constants {basis tuple: coordinates} of the arity-r op name read
    from its [i1, .., ir, k, coeff] entries; repeated entries add up."""
    constants: dict = {}
    for entry in _json(entries, list, f"op {name!r}: 'entries'"):
        if len(_json(entry, list, f"op {name!r}: entry")) != arity + 2:
            raise BundleFormatError(f"op {name!r}: entry {entry!r} has wrong length")
        *idx, comp = (_json(i, int, f"op {name!r}: index in {entry!r}") for i in entry[:-1])
        idx, coeff = tuple(idx), entry[-1]
        if any(i < 0 or i >= dim for i in idx) or not 0 <= comp < dim:
            raise BundleFormatError(f"op {name!r}: index out of range in {entry!r}")
        vec = constants.setdefault(idx, [Scalar.zero(params)] * dim)
        vec[comp] = vec[comp] + parse_scalar(str(coeff), params)
    return {k: tuple(v) for k, v in constants.items()}


def _bundle_from_dict(data: dict) -> AlgebraBundle:
    if not isinstance(data, dict):
        raise BundleFormatError("bundle file must contain a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise BundleFormatError(f"unknown fields: {sorted(unknown)}")
    schema = data.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise BundleFormatError(f"unsupported schema {schema!r} (supported: {SCHEMA_VERSION})")
    for section in ("ring", "ops", "maps"):
        if not isinstance(data.get(section, {}), dict):
            raise BundleFormatError(f"{section!r} must be a JSON object")
    labels = _json(data["basis"], list, "'basis'")
    dim = _json(data["dim"], int, "'dim'")
    if len(labels) != dim:
        raise BundleFormatError("dim does not match the number of basis labels")
    space = BasisSpace(labels)

    ring_data = data.get("ring", {})
    unknown = set(ring_data) - _RING_FIELDS
    if unknown:
        raise BundleFormatError(f"unknown ring fields: {sorted(unknown)}")
    params = tuple(_json(ring_data.get("params", []), list, "'params'"))
    constraints = []
    for text in _json(ring_data.get("constraints", []), list, "'constraints'"):
        scalar = parse_scalar(text, params)
        num, den = scalar.as_fraction_pair()
        if not den.is_const():
            raise BundleFormatError(f"constraint {text!r} is not a polynomial")
        constraints.append(num.scale(1 / den.const_value()))
    ring = Ring(params, tuple(constraints))

    ops = {}
    for name, spec in data.get("ops", {}).items():
        unknown = set(spec) - _OP_FIELDS
        if unknown:
            raise BundleFormatError(f"unknown op fields in {name!r}: {sorted(unknown)}")
        arity = _json(spec["arity"], int, f"op {name!r}: 'arity'")
        constants = op_constants(name, spec.get("entries", []), arity, dim, params)
        ops[name] = MultiOp(space, params, arity, constants)

    maps = {}
    for name, rows in data.get("maps", {}).items():
        if len(_json(rows, list, f"map {name!r}")) != dim or any(
            len(_json(r, list, f"map {name!r}: row")) != dim for r in rows
        ):
            raise BundleFormatError(f"map {name!r}: matrix must be {dim}x{dim}")
        maps[name] = LinMap(
            space, params, [[parse_scalar(str(c), params) for c in row] for row in rows]
        )

    return AlgebraBundle(space, ring, ops, maps, data.get("provenance"))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BihomError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_bundle(path) -> AlgebraBundle:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(f"{path}: invalid JSON at line {exc.lineno}")
    except ValueError:  # an integer literal longer than int() converts
        raise BundleFormatError(f"{path}: number too long") from None
    try:
        return bundle_from_dict(data)
    except UnknownParameter as exc:
        raise BundleFormatError(f"{path}: {exc}")


def canonical_json(data) -> str:
    """The one text every written bundle, report and catalog entry uses:
    sorted keys, two-space indent, UTF-8 kept as is, a final newline."""
    return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def save_bundle(bundle: AlgebraBundle, path) -> None:
    Path(path).write_text(canonical_json(bundle.canonical_dict()), encoding="utf-8")


def report_to_json(report, bundle_hash: str | None = None) -> str:
    data = report.to_dict()
    data["tool_version"] = __version__
    if bundle_hash is not None:
        data["bundle_hash"] = bundle_hash
    return canonical_json(data)


def save_report(report, path, bundle_hash: str | None = None) -> None:
    Path(path).write_text(report_to_json(report, bundle_hash), encoding="utf-8")


def load_identity_file(path) -> dict:
    """Identities of a .idl file keyed by their `# id:` names; files without
    id comments get positional names decl0, decl1, ..."""
    text = _read_text(path)
    if "# id:" in text:
        return parse_identity_file(text)
    return {f"decl{i}": ident for i, ident in enumerate(parse_identities(text))}
