"""Deterministic JSON / CSV serialization for specs and reports.

Three document kinds are understood, dispatched on their ``kind`` field:
``chain`` (transition rule sets), ``interval-map`` (Markov interval
maps) and ``graph`` (tame graph map specs).  Builtin families may be
referenced by name instead of spelling the data out.  All emitters are
canonical — keys sorted, floats rounded to 12 significant digits,
exact rationals as ``"p/q"`` strings — so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .chain import Abs, AbsRay, Rel, RelRay, SchemaError, TransitionRuleSet
from .families import chain_by_name
from .graph import TameGraphMapSpec, dendrite_example
from .interval import (Branch, FinitePartition, GeometricPartition,
                       IntegerPartition, MarkovIntervalMap, five_three_map,
                       staircase_map, tent_map)

__all__ = [
    "SCHEMA_VERSION", "ParseError",
    "canonical", "dump_json", "write_json", "load_json", "fmt", "write_csv",
    "chain_to_dict", "chain_from_dict",
    "interval_map_to_dict", "interval_map_from_dict",
    "graph_to_dict", "graph_from_dict",
    "load_spec", "MAP_FAMILIES",
]

SCHEMA_VERSION = 1

MAP_FAMILIES = {
    "tent": tent_map,
    "staircase": staircase_map,
    "five-three-map": five_three_map,
}


class ParseError(ValueError):
    """Input document rejected; carries the offending field or line."""

    def __init__(self, message: str, *, field: str | None = None,
                 line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


# ---------------------------------------------------------------------------
# canonical emission

def _round12(x: float) -> float:
    # round-tripping through %.12g caps the printed repr at 12 significant
    # digits while keeping the value a JSON number
    if x != x or x in (float("inf"), float("-inf")):
        return x
    return float(f"{x:.12g}")


def canonical(obj: Any) -> Any:
    """Normalize a report tree for deterministic emission."""
    kind = type(obj)    # exact builtin types first: the Mapping ABC is slow
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is float:
        return _round12(obj)
    if kind is dict or isinstance(obj, Mapping):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    return obj


def dump_json(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def load_json(path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno) from exc


def fmt(x: Any) -> str:
    """Canonical CSV cell: 12 significant digits for floats."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


# rows formatted per block: one % operation and one write each, so a long
# file costs a few thousand rows of strings at a time, not the whole file
CSV_CHUNK_ROWS = 4096


def _column_format(column) -> str | None:
    """The %-format that gives ``fmt`` of every cell, or None if none does.

    Ranges hold integers and arrays answer by dtype; any other sequence
    is scanned once for the types of its cells.
    """
    if isinstance(column, range):
        return "%d"
    if isinstance(column, np.ndarray):
        return {"i": "%d", "u": "%d", "f": "%.12g"}.get(column.dtype.kind)
    types = set(map(type, column))
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
           for t in types):
        return "%d"
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "%.12g"
    return None


def write_csv(path, header: list[str], columns) -> None:
    """Header plus one line of ``fmt`` cells per row, given column by column.

    ``columns`` holds one sequence (numpy array, ``range`` or list) per
    header field, all of one length, or ``ValueError`` is raised.  Rows go
    out in blocks of ``CSV_CHUNK_ROWS``; an array column becomes Python
    scalars one block at a time.  ``_column_format`` picks ``%d`` or
    ``%.12g`` where that prints what ``fmt`` does; other columns use ``fmt``.
    An array column of cells at most 8 bytes wide whose cells in a block
    are bitwise one value (so ``0.0`` and ``-0.0`` differ) is formatted
    once into that block's row template instead of cell by cell.
    """
    width = len(header)
    lengths = set(map(len, columns))
    if len(columns) != width or len(lengths) > 1:
        raise ValueError(f"{path} needs {width} CSV columns of one length, "
                         f"got lengths {[len(col) for col in columns]}")
    n = lengths.pop() if lengths else 0
    specs = [_column_format(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            rows = min(CSV_CHUNK_ROWS, n - lo)
            fields, parts = [], []
            for col, spec in zip(columns, specs):
                part = col[lo:lo + rows]
                if spec is None:
                    part = [fmt(c) for c in part]
                elif isinstance(part, np.ndarray):
                    # cells compared as same-width ints; no int type is as
                    # wide as a longdouble, whose blocks go cell by cell
                    if part.itemsize <= 8:
                        bits = part.view(f"i{part.itemsize}")
                        if bits[0] == bits[-1] and (bits == bits[0]).all():
                            cell = spec % part[0].item()
                            fields.append(cell.replace("%", "%%"))
                            continue
                    part = part.tolist()
                fields.append(spec or "%s")
                parts.append(part)
            # row-major cells: the k-th column left is cells[k::stride]
            stride = len(parts)
            cells = [None] * (rows * stride)
            for k, part in enumerate(parts):
                cells[k::stride] = part
            fh.write((",".join(fields) + "\n") * rows % tuple(cells))


# ---------------------------------------------------------------------------
# fractions in documents

def _frac(value: Any, field: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"expected an exact number (integer or 'p/q'), "
                     f"got {value!r}", field=field)


def _int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", field=field)
    return value


def _check_version(doc: Mapping, field: str = "schema_version") -> None:
    v = doc.get(field)
    if v != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {v!r}; "
                         f"this build reads version {SCHEMA_VERSION}",
                         field=field)


# ---------------------------------------------------------------------------
# chain documents
#
# states: explicit rows, each either an array of successor indices or
#   {"successors": [...], "all_from": s} when the row is a full ray.
# tail_rules: {"period": p, "rules": {residue: value}} with value an
#   offset array or {"offsets": [...], "ray_from_offset": o} /
#   {"offsets": [...], "ray_from": s}.

def _row_to_json(spans, i: int):
    succ = sorted({i + a if rel else a for rel, a, ray in spans if not ray})
    rays = [i + a if rel else a for rel, a, ray in spans if ray]
    if not rays:
        return succ
    out: dict[str, Any] = {"all_from": min(rays)}
    if succ:
        out["successors"] = succ
    return out


def _tail_rule_to_json(terms):
    offsets: list[int] = []
    entry: dict[str, Any] = {}
    for t in terms:
        if isinstance(t, Rel):
            offsets.append(t.offset)
        elif isinstance(t, RelRay):     # rays of a kind: the least start
            entry["ray_from_offset"] = min(t.offset, entry.get("ray_from_offset", t.offset))
        elif isinstance(t, AbsRay):
            entry["ray_from"] = min(t.start, entry.get("ray_from", t.start))
        elif isinstance(t, Abs):
            entry.setdefault("states", []).append(t.state)
    if not entry:
        return sorted(offsets)
    if offsets:
        entry["offsets"] = sorted(offsets)
    return entry


def chain_to_dict(m: TransitionRuleSet) -> dict:
    states = {str(i): _row_to_json(m._row(i), i) for i in sorted(m.explicit)}
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "name": m.name,
        "domain": [m.lo, m.hi],
        "window": m.head,
        "states": states,
    }
    if m.tail:
        doc["tail_rules"] = {
            "period": m.period,
            "rules": {str(r): _tail_rule_to_json(t)
                      for r, t in sorted(m.tail.items())},
        }
    return doc


def _row_from_json(value, field: str):
    terms: list = []
    if isinstance(value, list):
        for j in value:
            terms.append(Abs(_int(j, field)))
        return tuple(terms)
    if isinstance(value, dict):
        for j in value.get("successors", []):
            terms.append(Abs(_int(j, field)))
        if "all_from" in value:
            terms.append(AbsRay(_int(value["all_from"], field)))
        if terms:
            return tuple(terms)
    raise ParseError("row must be an array of successors or an object "
                     "with 'successors'/'all_from'", field=field)


def _tail_rule_from_json(value, field: str):
    terms: list = []
    if isinstance(value, list):
        for o in value:
            terms.append(Rel(_int(o, field)))
        return tuple(terms)
    if isinstance(value, dict):
        for o in value.get("offsets", []):
            terms.append(Rel(_int(o, field)))
        for s in value.get("states", []):
            terms.append(Abs(_int(s, field)))
        if "ray_from_offset" in value:
            terms.append(RelRay(_int(value["ray_from_offset"], field)))
        if "ray_from" in value:
            terms.append(AbsRay(_int(value["ray_from"], field)))
        if terms:
            return tuple(terms)
    raise ParseError("tail rule must be an offset array or an object with "
                     "'offsets'/'ray_from_offset'/'ray_from'", field=field)


def chain_from_dict(doc: Mapping) -> TransitionRuleSet:
    if "family" in doc:
        if "schema_version" in doc:
            _check_version(doc)
        params = {k: v for k, v in doc.items()
                  if k not in ("family", "kind", "schema_version")}
        try:
            return chain_by_name(doc["family"], **params)
        except KeyError as exc:
            raise ParseError(str(exc), field="family") from None
        except TypeError as exc:
            raise ParseError(f"bad family parameters: {exc}",
                             field="family") from None
    _check_version(doc)
    lo, hi = None, None
    if "domain" in doc:
        dom = doc["domain"]
        if (not isinstance(dom, list)) or len(dom) != 2:
            raise ParseError("domain must be [lo, hi] with null for "
                             "unbounded ends", field="domain")
        lo = None if dom[0] is None else _int(dom[0], "domain")
        hi = None if dom[1] is None else _int(dom[1], "domain")
    states = doc.get("states", {})
    if not isinstance(states, dict):
        raise ParseError("states must map state index to a row",
                         field="states")
    explicit = {}
    for key, value in states.items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError(f"state key {key!r} is not an integer",
                             field="states") from None
        if i in explicit:
            raise ParseError(f"state {i} has more than one row",
                             field=f"states.{key}")
        explicit[i] = _row_from_json(value, f"states.{key}")
    period, tail = 1, {}
    if "tail_rules" in doc:
        tr = doc["tail_rules"]
        if not isinstance(tr, dict):
            raise ParseError("tail_rules must be an object",
                             field="tail_rules")
        period = _int(tr.get("period", 1), "tail_rules.period")
        if period < 1:
            raise ParseError("period must be >= 1", field="tail_rules.period")
        rules = tr.get("rules", {})
        for key, value in rules.items():
            try:
                r = int(key)
            except ValueError:
                raise ParseError(f"residue key {key!r} is not an integer",
                                 field="tail_rules.rules") from None
            # a residue outside [0, period) would fold onto another one
            if r in tail or not 0 <= r < period:
                raise ParseError(
                    f"residue {r} has more than one rule" if r in tail
                    else f"residue {r} is outside [0, {period})",
                    field=f"tail_rules.rules.{key}")
            tail[r] = _tail_rule_from_json(value, f"tail_rules.rules.{key}")
    window = _int(doc.get("window", 0), "window")
    try:
        return TransitionRuleSet(lo=lo, hi=hi, head=window,
                                 explicit=explicit, period=period, tail=tail,
                                 name=str(doc.get("name", "custom")))
    except SchemaError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# interval-map documents

def interval_map_to_dict(imap: MarkovIntervalMap) -> dict:
    """Explicit partition and branches, or the builtin family with its ratio."""
    part = imap.partition
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "interval-map",
        "name": imap.name,
    }
    if imap.table is not None and imap.rule is None:
        if isinstance(part, FinitePartition):
            doc["partition"] = {"points": [str(p) for p in part.points]}
        elif isinstance(part, GeometricPartition):
            doc["partition"] = {"type": "geometric", "ratio": str(part.ratio)}
        else:
            doc["partition"] = {"type": "integers"}
        doc["branches"] = [
            {"interval": i,
             "image": [str(br.img_lo), str(br.img_hi)],
             "orientation": "increasing" if br.increasing else "decreasing"}
            for i, br in sorted(imap.table.items())
        ]
    elif imap.name in MAP_FAMILIES:
        doc["family"] = imap.name
        if imap.name == "staircase":
            doc["ratio"] = str(part.ratio)
    else:
        raise SchemaError(f"map {imap.name!r} has rule-generated branches "
                          "and no family name; cannot serialize losslessly")
    return doc


def interval_map_from_dict(doc: Mapping) -> MarkovIntervalMap:
    if "family" in doc and "branches" not in doc:
        name = doc["family"]
        if name not in MAP_FAMILIES:
            raise ParseError(f"unknown map family {name!r}; known: "
                             f"{sorted(MAP_FAMILIES)}", field="family")
        kwargs = {}
        if name == "staircase" and "ratio" in doc:
            kwargs["ratio"] = _frac(doc["ratio"], "ratio")
        return MAP_FAMILIES[name](**kwargs)
    _check_version(doc)
    part_doc = doc.get("partition")
    if not isinstance(part_doc, dict):
        raise ParseError("partition must be an object", field="partition")
    if "points" in part_doc:
        pts = [_frac(p, "partition.points") for p in part_doc["points"]]
        partition = FinitePartition(tuple(pts))
    elif part_doc.get("type") == "geometric":
        partition = GeometricPartition(_frac(part_doc.get("ratio", "1/2"),
                                             "partition.ratio"))
    elif part_doc.get("type") == "integers":
        partition = IntegerPartition()
    else:
        raise ParseError("partition needs 'points' or type 'geometric' or "
                         "'integers'", field="partition")
    branches = doc.get("branches")
    if not isinstance(branches, list) or not branches:
        raise ParseError("branches must be a nonempty array",
                         field="branches")
    table: dict[int, Branch] = {}
    for k, b in enumerate(branches):
        field = f"branches[{k}]"
        if not isinstance(b, dict):
            raise ParseError("branch must be an object", field=field)
        i = _int(b.get("interval", k), field + ".interval")
        img = b.get("image")
        if not isinstance(img, list) or len(img) != 2:
            raise ParseError("image must be [lo, hi]", field=field + ".image")
        lo = _frac(img[0], field + ".image")
        hi = _frac(img[1], field + ".image")
        orient = b.get("orientation", "increasing")
        if orient not in ("increasing", "decreasing"):
            raise ParseError("orientation must be 'increasing' or "
                             "'decreasing'", field=field + ".orientation")
        if i in table:
            raise ParseError(f"duplicate branch for interval {i}",
                             field=field)
        table[i] = Branch(i, lo, hi, orient == "increasing")
    return MarkovIntervalMap(partition, table=table,
                             name=str(doc.get("name", "custom")))


# ---------------------------------------------------------------------------
# graph documents

def graph_to_dict(spec: TameGraphMapSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "graph",
        "name": spec.name,
        "arcs": list(spec.arcs),
        "transitions": {str(a): [[b, bool(keep)] for b, keep in spec.covers[a]]
                        for a in spec.arcs},
    }


def graph_from_dict(doc: Mapping) -> TameGraphMapSpec:
    if "family" in doc:
        if doc["family"] != "dendrite":
            raise ParseError(f"unknown graph family {doc['family']!r}; "
                             "known: ['dendrite']", field="family")
        window = _int(doc.get("window", 12), "window")
        return dendrite_example(window)
    _check_version(doc)
    arcs = doc.get("arcs")
    if not isinstance(arcs, list) or not arcs:
        raise ParseError("arcs must be a nonempty array", field="arcs")
    arcs = tuple(_int(a, "arcs") for a in arcs)
    trans = doc.get("transitions")
    if not isinstance(trans, dict):
        raise ParseError("transitions must map arc to covered-arc list",
                         field="transitions")
    covers: dict[int, tuple[tuple[int, bool], ...]] = {}
    known = set(arcs)
    for key, lst in trans.items():
        try:
            a = int(key)
        except ValueError:
            raise ParseError(f"arc key {key!r} is not an integer",
                             field="transitions") from None
        if a in covers or a not in known:
            raise ParseError(
                f"arc {a} has more than one entry" if a in covers
                else f"arc {a} is not in arcs", field=f"transitions.{key}")
        if not isinstance(lst, list):
            raise ParseError("covered-arc list must be an array",
                             field=f"transitions.{key}")
        row = []
        for item in lst:
            if (not isinstance(item, list)) or len(item) != 2 \
                    or not isinstance(item[1], bool):
                raise ParseError("each cover must be [arc, keeps_orientation]",
                                 field=f"transitions.{key}")
            row.append((_int(item[0], f"transitions.{key}"), item[1]))
        covers[a] = tuple(row)
    try:
        return TameGraphMapSpec(arcs=arcs, covers=covers,
                                name=str(doc.get("name", "graph-map")))
    except Exception as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# dispatch

def load_spec(path):
    """Read any spec document, dispatching on its ``kind`` field."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    kind = doc.get("kind")
    if kind is None and "family" in doc:
        kind = "chain"
    if kind == "chain":
        return chain_from_dict(doc)
    if kind == "interval-map":
        return interval_map_from_dict(doc)
    if kind == "graph":
        return graph_from_dict(doc)
    raise ParseError(f"unknown document kind {kind!r}; expected 'chain', "
                     "'interval-map' or 'graph'", field="kind")
