"""JSON model documents for automata and switching systems.

Weights are finite JSON numbers with the string sentinels "-inf" and
"+inf" for the two infinities, which raw JSON numbers cannot express;
NaN, Infinity and numbers beyond a float's range are refused.  Serialisation
is canonical (sorted keys, two-space indent, integral floats written as
integers, trailing newline) so that parse followed by serialise reproduces
a canonical file byte for byte.  A parsed document keeps its body as read;
serialize_body is the one place that canonicalises.  Documents and
--inputs files are read by read_json, which refuses a repeated key and
nesting deeper than MAX_DEPTH; serialize_body refuses to write such
nesting, so every document it writes reads back.

A switching system's rule and controller are written from the document
forms they carry (SwitchingRule.spec, ControllerHook.spec); one built from
bare closures has none and is refused.  The bundled fixture documents are
these writers' output on the fixtures' builders.

Hybrid automaton documents store the switching system they are translated
from plus the loop discriminator; parsing rebuilds the translation.  Hand
built automata with opaque predicates have no document form.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Sequence

from . import hybrid, smpl
from .finite import FiniteAutomaton, make_delta
from .mpa import MaxPlusAutomaton
from .expressions import MatrixForm
from .tropical import EPS, TOP, TropicalMatrix, Weight


class ModelFormatError(ValueError):
    """Malformed model text or a violated document invariant."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


KINDS = ("mpa", "smpl", "maha", "fa")

# The keys each kind's document takes; meta is free-form.
FIELDS = {
    "mpa": ("kind", "states", "alphabet", "alpha", "mu", "beta", "meta"),
    "fa": ("kind", "states", "alphabet", "delta", "initial", "final", "meta"),
    "smpl": ("kind", "dims", "x0", "modes", "switching", "controller", "meta"),
    "maha": ("kind", "loop", "system", "meta"),
}


def encode_weight(a: Weight) -> Any:
    if a == EPS:
        return "-inf"
    if a == TOP:
        return "+inf"
    if float(a).is_integer():
        return int(a)
    return float(a)


def decode_weight(value: Any) -> Weight:
    if isinstance(value, str):
        if value == "-inf":
            return EPS
        if value == "+inf":
            return TOP
        raise ModelFormatError(f"unknown weight sentinel {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"weight must be a number or sentinel, got {value!r}")
    try:
        weight = float(value)
    except OverflowError:  # an integer beyond a float's range
        weight = TOP
    if not math.isfinite(weight):
        if weight != weight:
            raise ModelFormatError("weight NaN is not a number")
        raise ModelFormatError('weight number is out of range; the infinities are written "-inf" and "+inf"')
    return weight


def encode_matrix(m: TropicalMatrix) -> list[list[Any]]:
    return [[encode_weight(w) for w in m.row(i)] for i in range(m.rows)]


def decode_matrix(rows: Any, what: str) -> TropicalMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ModelFormatError(f"{what} must be a list of rows")
    try:
        return TropicalMatrix.from_rows(
            [[decode_weight(v) for v in row] for row in rows]
        )
    except ValueError as exc:
        raise ModelFormatError(f"{what}: {exc}") from exc


def decode_vector(values: Any, what: str) -> tuple[Weight, ...]:
    if not isinstance(values, list):
        raise ModelFormatError(f"{what} must be a list")
    try:
        return tuple(decode_weight(v) for v in values)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class ModelDocument:
    kind: str
    body: dict
    model: object = field(compare=False)

    @property
    def name(self) -> str:
        return self.body.get("meta", {}).get("name", "")


def _require(body: dict, key: str, kind: str, shape: type | None = None) -> Any:
    if key not in body:
        raise ModelFormatError(f"{kind} document is missing {key!r}")
    if shape is not None and not isinstance(body[key], shape):
        raise ModelFormatError(f"{kind} {key!r} must be a JSON {'object' if shape is dict else 'list'}")
    return body[key]


def _optional(body: dict, key: str, kind: str, shape: type, default: Any) -> Any:
    return _require(body, key, kind, shape) if key in body else default


def _only(body: dict, fields: Sequence[str], where: str) -> None:
    """Refuse a key that no builder reads, naming its path and the keys the
    container takes.  where is the container's path, empty for the
    document itself."""
    for key in body:
        if key not in fields:
            raise ModelFormatError(
                f"{where + '.' if where else ''}{key} is not a field; "
                f"{where or 'the ' + body['kind'] + ' document'} takes {', '.join(fields) or 'none'}"
            )


def _dim(dims_body: dict, key: str, default: int | None = None) -> int:
    value = _require(dims_body, key, "dims") if default is None else dims_body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ModelFormatError(f"dims {key!r} must be a non-negative integer, got {value!r}")
    return value


def _names(names: list, what: str) -> tuple[str, ...]:
    """State and symbol names, which are strings: none is coerced."""
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ModelFormatError(f"{what}[{i}] must be a string, got {name!r}")
    return tuple(names)


def _name_list(body: dict, key: str, kind: str) -> tuple[str, ...]:
    return _names(_require(body, key, kind, list), f"{kind} {key}")


@contextmanager
def _constructing(kind: str):
    """Prefix a model constructor's ValueError with the document kind.  A
    ModelFormatError already names its path and passes through as it is."""
    try:
        yield
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"{kind}: {exc}") from exc


def build_mpa(body: dict) -> MaxPlusAutomaton:
    states = _name_list(body, "states", "mpa")
    alphabet = _name_list(body, "alphabet", "mpa")
    mu_body = _require(body, "mu", "mpa", dict)
    _only(mu_body, alphabet, "mu")
    mu = {
        symbol: decode_matrix(mu_body.get(symbol), f"mu[{symbol!r}]")
        for symbol in alphabet
        if symbol in mu_body
    }
    meta = dict(_optional(body, "meta", "mpa", dict, {}))
    with _constructing("mpa"):
        return MaxPlusAutomaton(
            states=states,
            alphabet=alphabet,
            alpha=decode_vector(_require(body, "alpha", "mpa"), "alpha"),
            mu=mu,
            beta=decode_vector(_require(body, "beta", "mpa"), "beta"),
            meta=meta,
        )


def mpa_body(a: MaxPlusAutomaton, meta: dict | None = None) -> dict:
    body = {
        "kind": "mpa",
        "states": list(a.states),
        "alphabet": list(a.alphabet),
        "alpha": [encode_weight(w) for w in a.alpha],
        "mu": {symbol: encode_matrix(a.mu[symbol]) for symbol in a.alphabet},
        "beta": [encode_weight(w) for w in a.beta],
    }
    if meta:
        body["meta"] = meta
    return body


def build_fa(body: dict) -> FiniteAutomaton:
    states = _name_list(body, "states", "fa")
    alphabet = _name_list(body, "alphabet", "fa")
    delta_body = _require(body, "delta", "fa", dict)
    for src, by_symbol in delta_body.items():
        if not isinstance(by_symbol, dict) or not all(
            isinstance(targets, list) for targets in by_symbol.values()
        ):
            raise ModelFormatError(f"fa delta[{src!r}] must map symbols to lists of states")
    triples = [
        (src, symbol, dst)  # JSON object keys are strings already
        for src, by_symbol in delta_body.items()
        for symbol, targets in by_symbol.items()
        for dst in _names(targets, f"fa delta[{src!r}][{symbol!r}]")
    ]
    meta = dict(_optional(body, "meta", "fa", dict, {}))
    with _constructing("fa"):
        return FiniteAutomaton(
            states=states,
            alphabet=alphabet,
            delta=make_delta(triples),
            initial=frozenset(_name_list(body, "initial", "fa")),
            final=frozenset(_name_list(body, "final", "fa")),
            meta=meta,
        )


def fa_body(fa: FiniteAutomaton, meta: dict | None = None) -> dict:
    delta: dict[str, dict[str, list[str]]] = {}
    for (src, symbol), targets in sorted(fa.delta.items()):
        delta.setdefault(src, {})[symbol] = sorted(targets)
    body = {
        "kind": "fa",
        "states": list(fa.states),
        "alphabet": list(fa.alphabet),
        "delta": delta,
        "initial": sorted(fa.initial),
        "final": sorted(fa.final),
    }
    if meta:
        body["meta"] = meta
    return body


def _decode_mode(mode_body: Any, index: int) -> tuple[list[TropicalMatrix], ...]:
    """A mode's given A, B, C and D lists; B and D may be empty."""
    what = f"modes[{index}]"
    if not isinstance(mode_body, dict):
        raise ModelFormatError(f"{what} must be a JSON object")
    _only(mode_body, ("A", "B", "C", "D"), what)

    def mats(key: str, required: bool) -> list[TropicalMatrix]:
        rows = _require(mode_body, key, what, list) if required else _optional(mode_body, key, what, list, [])
        return [decode_matrix(m, f"{what}.{key}") for m in rows]

    return mats("A", True), mats("B", False), mats("C", True), mats("D", False)


def _build_modes(mode_bodies: list, dims: smpl.SmplDims) -> dict[int, smpl.MatrixMode]:
    """Modes from their given matrices.  An omitted B or D becomes an EPS
    block as wide as the mode's other input matrix, or else as u ++ r ++ p,
    which some mode's B or D must then carry; its rows are those of the A
    or C it goes with.  So no block is sized by dims alone."""
    width = dims.input_width
    given = [_decode_mode(mode_body, i) for i, mode_body in enumerate(mode_bodies)]
    carried = not width or any(m.cols == width for _, b, _, d in given for m in b + d)
    forms = []
    for i, (a_mats, b_mats, c_mats, d_mats) in enumerate(given):
        inputs = b_mats or d_mats
        if not inputs and not carried:
            raise ModelFormatError(
                f"dims u++r++p width {width} (n_u {dims.n_u} + n_r {dims.n_r} + n_p {dims.n_p}) "
                "is carried by no mode's B or D"
            )
        cols = inputs[0].cols if inputs else width
        b_mats = b_mats or [TropicalMatrix.epsilon(a.rows, cols) for a in a_mats]
        d_mats = d_mats or [TropicalMatrix.epsilon(c.rows, cols) for c in c_mats]
        try:
            forms.append(MatrixForm(tuple(a_mats), tuple(b_mats), tuple(c_mats), tuple(d_mats)))
        except ValueError as exc:
            raise ModelFormatError(f"modes[{i}]: {exc}") from exc
    for i, form in enumerate(forms):
        if form.n_state != dims.n or form.n_output != dims.n_y:
            raise ModelFormatError(f"modes[{i}] shapes disagree with dims")
        if form.n_input != width:
            raise ModelFormatError(f"modes[{i}] input width {form.n_input} != u++r++p width {width}")
    return {i + 1: smpl.MatrixMode(form) for i, form in enumerate(forms)}


# The switching.kind values each switching.type accepts, its own kind (the
# default) first.  symbol_liveness reads w and x, so it takes no kind that
# claims independence from either; externally_driven builds a rule of its
# own kind only.
SWITCHING_KINDS = {
    "symbol_liveness": ("constrained", "constrained_controlled"),
    "externally_driven": ("externally_driven",),
}


def _decode_switching(
    body: dict, modes: dict[int, smpl.MatrixMode], dims: smpl.SmplDims
) -> smpl.SwitchingRule:
    spec = _require(body, "switching", "smpl", dict)
    _only(spec, ("type", "kind", "symbols"), "switching")
    rule_type = _require(spec, "type", "switching")
    if not isinstance(rule_type, str) or rule_type not in SWITCHING_KINDS:
        raise ModelFormatError(f"unknown switching type {rule_type!r}")
    accepted = SWITCHING_KINDS[rule_type]
    kind_name = spec.get("kind", accepted[0])
    try:
        kind = smpl.SwitchingKind(kind_name)
    except ValueError as exc:
        raise ModelFormatError(f"unknown switching kind {kind_name!r}") from exc
    if kind.value not in accepted:
        raise ModelFormatError(
            f"switching.kind {kind.value!r} does not fit switching.type {rule_type!r}, "
            f"which accepts {', '.join(map(repr, accepted))}"
        )
    symbols = _name_list(spec, "symbols", "switching")
    if len(symbols) != len(modes):
        raise ModelFormatError("switching needs one symbol per mode")
    if rule_type == "symbol_liveness":
        return smpl.symbol_liveness_rule(modes, symbols, dims.input_width, kind=kind)
    return smpl.externally_driven_rule(symbols)


def _decode_controller(body: dict, dims: smpl.SmplDims) -> smpl.ControllerHook | None:
    spec = body.get("controller")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ModelFormatError("'controller' must be a JSON object")
    ctrl_type = _require(spec, "type", "controller")
    if ctrl_type == "static_feedback":
        _only(spec, ("type", "gain"), "controller")
        gain = decode_matrix(_require(spec, "gain", "controller"), "controller.gain")
        if gain.rows != dims.n_u or gain.cols != dims.n:
            raise ModelFormatError("controller gain must be n_u x n")
        return smpl.static_feedback(gain)
    raise ModelFormatError(f"unknown controller type {ctrl_type!r}")


def build_smpl(body: dict) -> smpl.SmplSystem:
    dims_body = _require(body, "dims", "smpl", dict)
    _only(dims_body, ("n", "n_u", "n_v", "n_y", "n_r", "n_p"), "dims")
    dims = smpl.SmplDims(
        n=_dim(dims_body, "n"),
        n_u=_dim(dims_body, "n_u", 0),
        n_v=_dim(dims_body, "n_v", 0),
        n_y=_dim(dims_body, "n_y", 1),
        n_r=_dim(dims_body, "n_r", 0),
        n_p=_dim(dims_body, "n_p", 0),
    )
    if dims.n_v:
        # No mode, switching rule or controller of a document reads or
        # yields v, so every block of that width would be EPS padding.
        raise ModelFormatError(f"dims 'n_v' must be 0, got {dims.n_v}: nothing in a document carries v")
    modes = _build_modes(_require(body, "modes", "smpl", list), dims)
    meta = dict(_optional(body, "meta", "smpl", dict, {}))
    with _constructing("smpl"):
        return smpl.SmplSystem(
            n_modes=len(modes),
            modes=modes,
            switching=_decode_switching(body, modes, dims),
            x0=decode_vector(_require(body, "x0", "smpl"), "x0"),
            dims=dims,
            controller=_decode_controller(body, dims),
            meta=meta,
        )


def smpl_body(s: smpl.SmplSystem, meta: dict | None = None) -> dict:
    if s.switching.spec is None:
        raise ModelFormatError("switching rule has no declarative form to serialise")
    if s.dims.n_v:
        # build_smpl refuses such a document, so do not write one
        raise ModelFormatError(f"dims 'n_v' must be 0 to serialise, got {s.dims.n_v}: nothing in a document carries v")
    modes = []
    for i in range(1, s.n_modes + 1):
        form = s.modes[i].form
        mode_body: dict[str, Any] = {
            "A": [encode_matrix(m) for m in form.A],
            "C": [encode_matrix(m) for m in form.C],
        }
        if form.n_input:
            mode_body["B"] = [encode_matrix(m) for m in form.B]
            mode_body["D"] = [encode_matrix(m) for m in form.D]
        modes.append(mode_body)
    dims = s.dims
    body: dict[str, Any] = {
        "kind": "smpl",
        "dims": {
            "n": dims.n,
            "n_u": dims.n_u,
            "n_v": dims.n_v,
            "n_y": dims.n_y,
            "n_r": dims.n_r,
            "n_p": dims.n_p,
        },
        "x0": [encode_weight(w) for w in s.x0],
        "modes": modes,
        "switching": {"kind": s.switching.kind.value, **s.switching.spec},
    }
    if s.controller is not None:
        if s.controller.spec is None:
            raise ModelFormatError("controller hook has no declarative form to serialise")
        body["controller"] = {
            key: encode_matrix(value) if isinstance(value, TropicalMatrix) else value
            for key, value in s.controller.spec.items()
        }
    if meta:
        body["meta"] = meta
    return body


def build_maha(body: dict) -> hybrid.HybridAutomaton:
    _optional(body, "meta", "maha", dict, {})
    system_body = dict(_require(body, "system", "maha", dict))
    _only(system_body, FIELDS["smpl"], "system")
    if system_body.setdefault("kind", "smpl") != "smpl":
        raise ModelFormatError(f"system.kind must be 'smpl', got {system_body['kind']!r}")
    system = build_smpl(system_body)
    loop = body.get("loop", "open")
    if loop == "open":
        return hybrid.from_smpl_open(system)
    if loop == "closed":
        return hybrid.from_smpl_closed(system)
    raise ModelFormatError(f"unknown loop discriminator {loop!r}")


def maha_body(system_body: dict, loop: str = "open", meta: dict | None = None) -> dict:
    inner = {k: v for k, v in system_body.items() if k != "kind"}
    body: dict[str, Any] = {"kind": "maha", "loop": loop, "system": inner}
    if meta:
        body["meta"] = meta
    return body


_BUILDERS = {
    "mpa": build_mpa,
    "fa": build_fa,
    "smpl": build_smpl,
    "maha": build_maha,
}


# Far deeper than any document nests (a maha document nests 7 deep) and
# far short of the recursion that writing a value back runs into.
MAX_DEPTH = 100


class UnreadableJson(ModelFormatError):
    """Text that read_json refuses before any builder sees it."""


def _distinct_keys(pairs: list[tuple[str, Any]]) -> dict:
    """json's object hook: a repeated key is refused, not resolved to its last value."""
    body = dict(pairs)
    if len(body) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise UnreadableJson(f"repeated key {repeated!r}: an object takes each key once")
    return body


_NOT_NESTING = bytes(b for b in range(256) if b not in b'[]{}"')


def _nests_too_deep(text: str) -> bool:
    """Whether arrays and objects nest deeper than MAX_DEPTH in valid JSON
    text, read with bytes.translate rather than by a walk over every value:
    escaped backslashes and quotes go, so that each quote left opens or
    closes a string; then every byte but brackets, braces and quotes.  With
    no more openings than MAX_DEPTH left, it cannot; otherwise each string
    goes, with any brackets it holds, and the depth is counted."""
    data = text.encode("utf-8", "surrogatepass")
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    skeleton = data.translate(None, _NOT_NESTING)
    if skeleton.count(b"[") + skeleton.count(b"{") <= MAX_DEPTH:
        return False
    skeleton = re.sub(rb'"[^"]*"', b"", skeleton.replace(b'""', b""))
    return max(accumulate(1 if b in b"[{" else -1 for b in skeleton), default=0) > MAX_DEPTH


def read_json(text: str) -> Any:
    """The JSON value of a model document or an --inputs file, which must
    name each key of an object once and nest at most MAX_DEPTH deep."""
    try:
        value = json.loads(text, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise UnreadableJson(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError:
        pass  # nested deeper than json.loads itself reads
    else:
        if not _nests_too_deep(text):
            return value
    raise UnreadableJson(f"arrays and objects nest deeper than {MAX_DEPTH} levels")


def parse_model(text: str) -> ModelDocument:
    body = read_json(text)
    if not isinstance(body, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = body.get("kind")
    if kind not in KINDS:  # a tuple: an unhashable kind compares unequal instead of raising
        raise ModelFormatError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    _only(body, FIELDS[kind], "")
    model = _BUILDERS[kind](body)
    return ModelDocument(kind=kind, body=body, model=model)


def _canonical_value(value: Any, depth: int = 1) -> Any:
    """Keys as sorted strings and integral floats as ints, in every dict
    and list.  List items that are scalars, such as matrix entries, are
    handled in place rather than by a call each.  depth is the nesting
    level of value, the body's being 1: a dict or list deeper than
    MAX_DEPTH is refused, as read_json would refuse the text."""
    if depth > MAX_DEPTH and isinstance(value, (dict, list)):
        raise ModelFormatError(f"the document would nest deeper than {MAX_DEPTH} levels")
    if isinstance(value, dict):
        return {str(k): _canonical_value(value[k], depth + 1) for k in sorted(value, key=str)}
    if isinstance(value, list):
        return [
            (int(v) if v.is_integer() else v) if isinstance(v, float)
            else _canonical_value(v, depth + 1) if isinstance(v, (dict, list))
            else v
            for v in value
        ]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def serialize_body(body: dict) -> str:
    return json.dumps(_canonical_value(body), sort_keys=True, indent=2) + "\n"
