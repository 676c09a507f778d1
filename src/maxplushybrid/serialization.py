"""JSON model documents for automata and switching systems.

Weights are JSON numbers with the string sentinels "-inf" and "+inf" for
the two infinities, which raw JSON numbers cannot express.  Serialisation
is canonical (sorted keys, two-space indent, integral floats written as
integers, trailing newline) so that parse followed by serialise reproduces
a canonical file byte for byte.

Hybrid automaton documents store the switching system they are translated
from plus the loop discriminator; parsing rebuilds the translation.  Hand
built automata with opaque predicates have no document form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

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
    return float(value)


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


def _dim(dims_body: dict, key: str, default: int | None = None) -> int:
    value = _require(dims_body, key, "dims") if default is None else dims_body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ModelFormatError(f"dims {key!r} must be a non-negative integer, got {value!r}")
    return value


def build_mpa(body: dict) -> MaxPlusAutomaton:
    states = tuple(str(s) for s in _require(body, "states", "mpa", list))
    alphabet = tuple(str(a) for a in _require(body, "alphabet", "mpa", list))
    mu_body = _require(body, "mu", "mpa", dict)
    mu = {
        symbol: decode_matrix(mu_body.get(symbol), f"mu[{symbol!r}]")
        for symbol in alphabet
        if symbol in mu_body
    }
    meta = dict(_optional(body, "meta", "mpa", dict, {}))
    try:
        return MaxPlusAutomaton(
            states=states,
            alphabet=alphabet,
            alpha=decode_vector(_require(body, "alpha", "mpa"), "alpha"),
            mu=mu,
            beta=decode_vector(_require(body, "beta", "mpa"), "beta"),
            meta=meta,
        )
    except ValueError as exc:
        raise ModelFormatError(f"mpa: {exc}") from exc


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
    states = tuple(str(s) for s in _require(body, "states", "fa", list))
    alphabet = tuple(str(a) for a in _require(body, "alphabet", "fa", list))
    delta_body = _require(body, "delta", "fa", dict)
    for src, by_symbol in delta_body.items():
        if not isinstance(by_symbol, dict) or not all(
            isinstance(targets, list) for targets in by_symbol.values()
        ):
            raise ModelFormatError(f"fa delta[{src!r}] must map symbols to lists of states")
    triples = [
        (str(src), str(symbol), str(dst))
        for src, by_symbol in delta_body.items()
        for symbol, targets in by_symbol.items()
        for dst in targets
    ]
    meta = dict(_optional(body, "meta", "fa", dict, {}))
    try:
        return FiniteAutomaton(
            states=states,
            alphabet=alphabet,
            delta=make_delta(triples),
            initial=frozenset(str(s) for s in _require(body, "initial", "fa", list)),
            final=frozenset(str(s) for s in _require(body, "final", "fa", list)),
            meta=meta,
        )
    except ValueError as exc:
        raise ModelFormatError(f"fa: {exc}") from exc


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


def _decode_mode(mode_body: dict, dims: smpl.SmplDims, index: int) -> smpl.MatrixMode:
    what = f"modes[{index}]"
    if not isinstance(mode_body, dict):
        raise ModelFormatError(f"{what} must be a JSON object")
    a_mats = [
        decode_matrix(m, f"{what}.A") for m in _require(mode_body, "A", what, list)
    ]
    width = dims.input_width
    b_mats = [
        decode_matrix(m, f"{what}.B") for m in _optional(mode_body, "B", what, list, [])
    ] or [TropicalMatrix.epsilon(dims.n, width) for _ in a_mats]
    c_mats = [
        decode_matrix(m, f"{what}.C") for m in _require(mode_body, "C", what, list)
    ]
    d_mats = [
        decode_matrix(m, f"{what}.D") for m in _optional(mode_body, "D", what, list, [])
    ] or [TropicalMatrix.epsilon(dims.n_y, width) for _ in c_mats]
    try:
        return smpl.MatrixMode(MatrixForm(tuple(a_mats), tuple(b_mats), tuple(c_mats), tuple(d_mats)))
    except ValueError as exc:
        raise ModelFormatError(f"{what}: {exc}") from exc


def _decode_switching(
    body: dict, modes: dict[int, smpl.ModeDynamics], dims: smpl.SmplDims
) -> smpl.SwitchingRule:
    spec = _require(body, "switching", "smpl", dict)
    rule_type = _require(spec, "type", "switching")
    kind_name = spec.get("kind", "constrained")
    try:
        kind = smpl.SwitchingKind(kind_name)
    except ValueError as exc:
        raise ModelFormatError(f"unknown switching kind {kind_name!r}") from exc
    symbols = [str(s) for s in _require(spec, "symbols", "switching", list)]
    if len(symbols) != len(modes):
        raise ModelFormatError("switching needs one symbol per mode")
    if rule_type == "symbol_liveness":
        return smpl.symbol_liveness_rule(modes, symbols, dims.input_width, kind=kind)
    if rule_type == "externally_driven":
        return smpl.externally_driven_rule(symbols)
    raise ModelFormatError(f"unknown switching type {rule_type!r}")


def _decode_controller(body: dict, dims: smpl.SmplDims) -> smpl.ControllerHook | None:
    spec = body.get("controller")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ModelFormatError("'controller' must be a JSON object")
    ctrl_type = _require(spec, "type", "controller")
    if ctrl_type == "static_feedback":
        gain = decode_matrix(_require(spec, "gain", "controller"), "controller.gain")
        if gain.rows != dims.n_u or gain.cols != dims.n:
            raise ModelFormatError("controller gain must be n_u x n")
        return smpl.static_feedback(gain, dims.n)
    raise ModelFormatError(f"unknown controller type {ctrl_type!r}")


def build_smpl(body: dict) -> smpl.SmplSystem:
    dims_body = _require(body, "dims", "smpl", dict)
    dims = smpl.SmplDims(
        n=_dim(dims_body, "n"),
        n_u=_dim(dims_body, "n_u", 0),
        n_v=_dim(dims_body, "n_v", 0),
        n_y=_dim(dims_body, "n_y", 1),
        n_r=_dim(dims_body, "n_r", 0),
        n_p=_dim(dims_body, "n_p", 0),
    )
    mode_bodies = _require(body, "modes", "smpl", list)
    modes = {
        i + 1: _decode_mode(mode_body, dims, i)
        for i, mode_body in enumerate(mode_bodies)
    }
    for i, mode in modes.items():
        form = mode.form
        if form.n_state != dims.n or form.n_output != dims.n_y:
            raise ModelFormatError(f"modes[{i - 1}] shapes disagree with dims")
        if form.n_input != dims.input_width:
            raise ModelFormatError(
                f"modes[{i - 1}] input width {form.n_input} != u++r++p width {dims.input_width}"
            )
    meta = dict(_optional(body, "meta", "smpl", dict, {}))
    if "controller" in body:
        meta["controller_spec"] = body["controller"]
    try:
        return smpl.SmplSystem(
            n_modes=len(modes),
            modes=modes,
            switching=_decode_switching(body, modes, dims),
            x0=decode_vector(_require(body, "x0", "smpl"), "x0"),
            dims=dims,
            controller=_decode_controller(body, dims),
            meta=meta,
        )
    except ValueError as exc:
        raise ModelFormatError(f"smpl: {exc}") from exc


def smpl_body(s: smpl.SmplSystem, meta: dict | None = None) -> dict:
    if s.switching.spec is None:
        raise ModelFormatError("switching rule has no declarative form to serialise")
    modes = []
    for i in range(1, s.n_modes + 1):
        form = s.modes[i].form
        if form is None:
            raise ModelFormatError("only matrix-form mode dynamics serialise")
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
        spec = s.meta.get("controller_spec")
        if spec is None:
            raise ModelFormatError(
                "controller hooks serialise only through explicit controller specs"
            )
        body["controller"] = spec
    if meta:
        body["meta"] = meta
    return body


def build_maha(body: dict) -> hybrid.HybridAutomaton:
    _optional(body, "meta", "maha", dict, {})
    system_body = dict(_require(body, "system", "maha", dict))
    system_body.setdefault("kind", "smpl")
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


def parse_model(text: str) -> ModelDocument:
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(body, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = body.get("kind")
    if kind not in KINDS:  # a tuple: an unhashable kind compares unequal instead of raising
        raise ModelFormatError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    model = _BUILDERS[kind](body)
    return ModelDocument(kind=kind, body=_canonical_body(body), model=model)


def _canonical_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _canonical_value(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, list):
        return [_canonical_value(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _canonical_body(body: dict) -> dict:
    return _canonical_value(body)


def serialize_model(doc: ModelDocument) -> str:
    return serialize_body(doc.body)


def serialize_body(body: dict) -> str:
    return json.dumps(_canonical_body(body), sort_keys=True, indent=2) + "\n"
