"""Command-line surface: eval, simulate, translate, abstract, check, reproduce.

Each command returns the text it prints and its exit code, and main only
writes the text.  translate and abstract print a document; the others
print a report through _report, as JSON or text.  Exit codes: 0 for
success or a true verdict, 1 for a false verdict, 2 for usage or model
errors.  A check report carries its regime (exact, exhaustive or
sampled), the bound of a bounded regime, and a witness when there is
one.  A report's content is deterministic for a fixed seed, so two runs
with the same arguments compare byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Any, Sequence

from . import equivalence, fixtures, hybrid, mpa, reproduce, smpl
from .serialization import (
    ModelDocument,
    ModelFormatError,
    UnreadableJson,
    decode_vector,
    encode_weight,
    maha_body,
    fa_body,
    parse_model,
    read_json,
    serialize_body,
    smpl_body,
)
from .tropical import EPS, is_finite


class UsageError(ValueError):
    pass


DEFAULT_BOUND = 6  # of a bounded check run without --bound


def _report(args: argparse.Namespace, payload: dict[str, Any], verdict: bool | None = None) -> tuple[str, int]:
    """A report command's text and exit code: its command line, payload
    and verdict (when it has one) as JSON or as text, where reproduce's
    checks are a table; exit code 1 for a false verdict, else 0."""
    code = 1 if verdict is False else 0
    if args.format == "json":
        doc = {"command": args.command_line, **payload}
        if verdict is not None:
            doc["verdict"] = verdict
        return json.dumps(doc, sort_keys=True, indent=2) + "\n", code
    lines = [f"$ {' '.join(args.command_line)}"]
    if args.command == "reproduce":
        width = max(len(check["name"]) for check in payload["checks"])
        for check in payload["checks"]:
            lines.append(f"{check['name']:<{width}}  {'PASS' if check['passed'] else 'FAIL'}  {check['details']}")
        lines.append(f"{payload['passed']}/{payload['total']} checks passed (seed {payload['seed']})")
    else:
        lines.extend(_text_lines(payload))
        if verdict is not None:
            lines.append(f"verdict: {_inline(verdict)}")
    return "\n".join(lines) + "\n", code


def _text_lines(value: dict | list, indent: str = "") -> list[str]:
    """A dict's entries by key, or a list's items after "- ", each on one
    line where _inline spells it, else followed by its own lines one
    level deeper (a list item's first one on the item's line)."""
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            text = _inline(value[key])
            if text is None:
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(value[key], indent + "  "))
            else:
                lines.append(f"{indent}{key}: {text}")
        return lines
    for sub in value:
        text = _inline(sub)
        if text is None:
            first, *rest = _text_lines(sub, indent + "  ")
            lines += [f"{indent}- {first[len(indent) + 2 :]}", *rest]
        else:
            lines.append(f"{indent}- {text}")
    return lines


def _inline(value: Any) -> str | None:
    """One line of text for a scalar (as JSON spells it, but a string
    bare), an empty container or a list of scalars; else None."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, list):
        if any(isinstance(sub, (dict, list)) for sub in value):
            return None
        return f"[{', '.join(map(_inline, value))}]"
    return str(value)


def _load_document(path: str) -> ModelDocument:
    if path in fixtures.FIXTURE_NAMES:
        return parse_model(fixtures.fixture_text(path))
    try:
        if path == "-":
            return parse_model(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return parse_model(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read model {path!r}: {exc}") from exc
    except UnreadableJson as exc:
        raise UsageError(f"model {'on stdin' if path == '-' else repr(path)}: {exc}") from exc


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Bare symbol string when every symbol is one character, else
    comma-separated, with no empty part."""
    if "," in text:
        word = tuple(text.split(","))
        if "" in word:
            raise UsageError(f"--word {text!r} has an empty symbol at position {word.index('') + 1}")
    elif all(len(symbol) == 1 for symbol in alphabet):
        word = tuple(text)
    else:
        word = (text,) if text else ()
    for symbol in word:
        if symbol not in alphabet:
            raise UsageError(f"symbol {symbol!r} is not in the alphabet {list(alphabet)}")
    return word


def cmd_eval(args: argparse.Namespace) -> tuple[str, int]:
    doc = _load_document(args.model)
    if doc.kind not in ("mpa", "fa"):
        raise UsageError(f"eval expects an mpa or fa document, got {doc.kind!r}")
    word = parse_word(args.word, doc.model.alphabet)
    if doc.kind == "mpa":
        value = mpa.eval_output(doc.model, word)
        return _report(args, {"word": list(word), "output": encode_weight(value), "accepted": value != EPS})
    accepted = doc.model.accepts(word)
    return _report(args, {"word": list(word), "accepted": accepted}, accepted)


def _step_inputs_from_args(args: argparse.Namespace, doc: ModelDocument) -> tuple[smpl.StepInput, ...]:
    if args.word is not None and args.inputs is not None:
        raise UsageError("pass either --word or --inputs, not both")
    widths = _input_widths(doc)
    if args.word is not None:
        read = [f"{key} (width {n})" for key, n in widths.items() if n]
        if read:
            raise UsageError(
                f"--word gives each step a symbol only, but this model also reads {' and '.join(read)} "
                "on every step; pass the steps with --inputs"
            )
        return smpl.word_inputs(parse_word(args.word, _symbols_of(doc)))
    if args.inputs is None:
        raise UsageError("simulate needs --word or --inputs")
    try:
        with open(args.inputs, "r", encoding="utf-8") as handle:
            raw = read_json(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read inputs {args.inputs!r}: {exc}") from exc
    except UnreadableJson as exc:
        raise UsageError(f"inputs {args.inputs!r}: {exc}") from exc
    if not isinstance(raw, list):
        raise UsageError("inputs file must hold a JSON list of steps")
    symbols = _symbols_of(doc)
    steps = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise UsageError(f"inputs[{k}] must be an object with u, v, w, r, p fields")
        unknown = sorted(set(entry) - set("uvwrp"))
        if unknown:
            raise UsageError(f"inputs[{k}].{unknown[0]} in {args.inputs!r} is not a step field; a step takes w, u, v, r, p")
        w = entry.get("w")
        if w is None:
            reads = "an mpa step reads a symbol" if doc.kind == "mpa" else f"a step reads one of {list(symbols)}"
            raise UsageError(f"inputs[{k}].w in {args.inputs!r} is missing; {reads}")
        if not isinstance(w, str):
            raise UsageError(f"inputs[{k}].w must be a symbol string")
        if w not in symbols:
            raise UsageError(
                f"inputs[{k}].w {w!r} in {args.inputs!r} is not in the alphabet {list(symbols)}"
            )
        signals = {key: decode_vector(entry.get(key, []), f"inputs[{k}].{key}") for key in "uvrp"}
        for key in "urp":
            if not all(map(is_finite, signals[key])):
                raise UsageError(f'inputs[{k}].{key} must be finite: continuous inputs take no "-inf" or "+inf"')
        if doc.kind == "mpa":
            for key in "uvrp":
                if signals[key]:
                    raise UsageError(f"inputs[{k}].{key} must be empty: an mpa step reads its symbol w only")
        for key, width in widths.items():
            if len(signals[key]) != width:
                raise UsageError(f"inputs[{k}].{key} in {args.inputs!r} has width {len(signals[key])}, expected {width}")
        steps.append(smpl.StepInput(w=w, **signals))
    return tuple(steps)


def _system(doc: ModelDocument) -> smpl.SmplSystem | None:
    """The switching system of an smpl document, or the one a maha
    document translates; None for the other kinds."""
    if doc.kind == "smpl":
        return doc.model
    return doc.model.system if doc.kind == "maha" else None


def _input_widths(doc: ModelDocument) -> dict[str, int]:
    """The step fields besides w that a document's steps read, with their
    widths: u and v on an open loop (a closed loop's controller computes
    its own), then r and p; none for an automaton."""
    system = _system(doc)
    if system is None:
        return {}
    d = system.dims
    return ({} if system.closed_loop else {"u": d.n_u, "v": d.n_v}) | {"r": d.n_r, "p": d.n_p}


def _symbols_of(doc: ModelDocument) -> tuple[str, ...]:
    """The symbols a document's words and steps read.  A document's system
    has at least one mode, so its alphabet is never empty."""
    system = _system(doc)
    return doc.model.alphabet if system is None else system.switching.alphabet


# The stepper of each kind that runs, over the document's model.
_STEPPERS = {"mpa": mpa.MpaBehaviour, "smpl": smpl.SmplBehaviour, "maha": hybrid.MahaBehaviour}


def _stepper(doc: ModelDocument, refusal: str) -> smpl.Stepper:
    """The document's stepper; refusal opens the message for a kind without one."""
    if doc.kind not in _STEPPERS:
        raise UsageError(f"{refusal}, got {doc.kind!r}")
    return _STEPPERS[doc.kind](doc.model)


def cmd_simulate(args: argparse.Namespace) -> tuple[str, int]:
    doc = _load_document(args.model)
    stepper = _stepper(doc, "simulate expects an mpa, smpl or maha document")
    inputs = _step_inputs_from_args(args, doc)
    if args.steps is not None:
        inputs = inputs[: args.steps]
    trace = stepper.fold(inputs)
    records = [_trace_record(doc, rec) for rec in trace.records]
    return _report(args, {"trace": records, "halted_at": trace.halted_at})


def _trace_record(doc: ModelDocument, rec: smpl.StepRecord) -> dict[str, Any]:
    """A run's record as simulate reports it: an mpa's symbol, row and
    value; a system's or translation's mode, x and y, with a system's
    successor modes."""
    if doc.kind == "mpa":
        return {
            "k": rec.k,
            "symbol": doc.model.alphabet[rec.mode - 1],
            "state": [encode_weight(v) for v in rec.x],
            "output": encode_weight(rec.y[0]),
        }
    entry: dict[str, Any] = {"k": rec.k, "mode": rec.mode}
    if doc.kind == "smpl":
        entry["successor_modes"] = list(rec.successor_modes)
    entry["x"] = [encode_weight(v) for v in rec.x]
    entry["y"] = [encode_weight(v) for v in rec.y]
    return entry


def cmd_translate(args: argparse.Namespace) -> tuple[str, int]:
    doc = _load_document(args.model)
    target = args.to
    if doc.kind == "mpa" and target == "smpl":
        system = smpl.from_mpa(doc.model)
        body = smpl_body(
            system,
            meta={"name": f"{doc.name or 'mpa'}-as-smpl", "translated_from": "mpa"},
        )
    elif doc.kind == "mpa" and target == "maha":
        system = smpl.from_mpa(doc.model)
        inner = smpl_body(system, meta={"translated_from": "mpa"})
        body = maha_body(inner, meta={"name": f"{doc.name or 'mpa'}-as-maha"})
    elif doc.kind == "smpl" and target == "maha":
        body = maha_body(doc.body, meta={"name": f"{doc.name or 'smpl'}-as-maha"})
    else:
        raise UsageError(f"no translation from {doc.kind!r} to {target!r}")
    return serialize_body(body), 0


def cmd_abstract(args: argparse.Namespace) -> tuple[str, int]:
    doc = _load_document(args.model)
    system = _system(doc)
    if doc.kind == "mpa":
        if args.style == "fused":
            raise UsageError("the fused style applies to smpl and maha documents")
        fa = mpa.to_finite_abstraction(doc.model)
    elif system is not None:
        abstraction = hybrid.mpa_chain_abstraction if args.style == "fused" else hybrid.finite_abstraction
        fa = abstraction(hybrid.HybridAutomaton(system))
    else:
        raise UsageError(f"abstract expects an mpa, smpl or maha document, got {doc.kind!r}")
    return serialize_body(fa_body(fa, meta={"name": f"{doc.name or doc.kind}-abstraction"})), 0


def _behaviour_inputs(args: argparse.Namespace, doc1: ModelDocument, doc2: ModelDocument, bound: int):
    """The regime and the step sequences of a behaviour check.  Both models
    take the same steps, so a field both documents read must have one
    width there; a field only one reads is drawn at its width."""
    symbols = _symbols_of(doc1)
    equivalence.require_same_alphabet(symbols, _symbols_of(doc2))
    table1, table2 = _input_widths(doc1), _input_widths(doc2)
    widths = {}
    for key in "urp":
        if key in table1 and key in table2 and table1[key] != table2[key]:
            raise UsageError(
                f"{args.model1!r} reads {key} of width {table1[key]} and {args.model2!r} {key} of width "
                f"{table2[key]} on every step; a behaviour check gives both models the same steps"
            )
        widths[key] = table1.get(key, table2.get(key, 0))
    if not any(widths.values()):
        regime = "exhaustive"
        by_symbol = {w: smpl.StepInput(w=w) for w in symbols}
        words = equivalence.exhaustive_words(symbols, bound)
        # lazily, so a document kind that cmd_check refuses costs no sequence
        seqs = (tuple(map(by_symbol.__getitem__, word)) for word in words)
    else:
        regime = "sampled"
        rng = random.Random(args.seed)
        seqs = []
        for _ in range(200):
            length = rng.randint(1, bound)
            seqs.append(
                tuple(
                    smpl.StepInput(
                        w=rng.choice(symbols),
                        **{
                            key: tuple(float(rng.randint(-3, 6)) for _ in range(width))
                            for key, width in widths.items()
                        },
                    )
                    for _ in range(length)
                )
            )
        seqs.sort(key=len)
    return regime, seqs


def cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    relation = args.relation
    if args.exact and relation != "language":
        raise UsageError("--exact applies to --relation language only")
    if args.bound is not None and (args.exact or relation in ("simulation", "bisimulation")):
        raise UsageError("--bound applies to --relation behaviour, and to --relation language without --exact")
    bound = DEFAULT_BOUND if args.bound is None else args.bound
    doc1, doc2 = _load_document(args.model1), _load_document(args.model2)
    if relation == "behaviour":
        if bound < 1:
            raise UsageError("--bound must be at least 1 for behaviour checks")
        regime, seqs = _behaviour_inputs(args, doc1, doc2, bound)
        refusal = "behaviour checks need mpa, smpl or maha documents"
        holds, steps = equivalence.behavioural_inclusion_upto(_stepper(doc1, refusal), _stepper(doc2, refusal), seqs)
        # r and p only when drawn, so witnesses of u-only models keep their form
        witness = None if steps is None else [
            {"w": inp.w, "u": [encode_weight(v) for v in inp.u]}
            | {key: [encode_weight(v) for v in getattr(inp, key)] for key in "rp" if getattr(inp, key)}
            for inp in steps
        ]
    elif doc1.kind != "fa" or doc2.kind != "fa":
        raise UsageError(f"{relation} checks compare fa documents; abstract first")
    elif relation == "language":
        regime = "exact" if args.exact else "exhaustive"
        if args.exact:
            holds, word = equivalence.language_equal_exact(doc1.model, doc2.model)
        else:
            holds, word = equivalence.language_equal_upto(doc1.model, doc2.model, bound)
        witness = None if word is None else list(word)
    else:
        regime = "exact"
        fixpoint = equivalence.greatest_simulation if relation == "simulation" else equivalence.bisimulation
        relation_pairs = fixpoint(doc1.model, doc2.model)
        holds = relation_pairs is not None
        witness = sorted(map(list, relation_pairs.pairs)) if holds else None
    payload: dict[str, Any] = {"regime": regime}
    if regime != "exact":
        payload["bound"] = bound
    if witness is not None:
        payload["witness"] = witness
    return _report(args, payload, holds)


def cmd_reproduce(args: argparse.Namespace) -> tuple[str, int]:
    results = reproduce.run_suite(seed=args.seed)
    payload = {
        "seed": args.seed,
        "checks": [{"name": r.name, "passed": r.passed, "details": r.details} for r in results],
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
    }
    return _report(args, payload, all(r.passed for r in results))


def count(text: str) -> int:
    """argparse type of --bound and --steps: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mph",
        description=(
            "Max-plus automata, switching max-plus linear systems and "
            "max-algebraic hybrid automata: evaluation, simulation, "
            "translation, abstraction and equivalence checking."
        ),
    )
    # Each command takes the flags it reads; translate and abstract write a document.
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "text"), default="text")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[formatted], help="evaluate a word on an automaton")
    p_eval.add_argument("model")
    p_eval.add_argument("--word", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_sim = sub.add_parser("simulate", parents=[formatted], help="run a model on an input sequence")
    p_sim.add_argument("model")
    p_sim.add_argument("--word")
    p_sim.add_argument(
        "--inputs",
        help="JSON list of steps {w, u, v, r, p}; u, r and p are finite numbers",
    )
    p_sim.add_argument("-K", "--steps", type=count, default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_tr = sub.add_parser("translate", help="translate between model classes")
    p_tr.add_argument("model")
    p_tr.add_argument("--to", required=True, choices=("smpl", "maha"))
    p_tr.set_defaults(fn=cmd_translate)

    p_abs = sub.add_parser("abstract", help="finite-state discrete abstraction")
    p_abs.add_argument("model")
    p_abs.add_argument("--style", choices=("standard", "fused"), default="standard")
    p_abs.set_defaults(fn=cmd_abstract)

    p_chk = sub.add_parser("check", parents=[formatted, seeded], help="check a relation between two models")
    p_chk.add_argument("model1")
    p_chk.add_argument("model2")
    p_chk.add_argument(
        "--bound", type=count, help=f"longest word or step sequence of a bounded check (default {DEFAULT_BOUND})"
    )
    p_chk.add_argument(
        "--relation",
        required=True,
        choices=("language", "simulation", "bisimulation", "behaviour"),
    )
    p_chk.add_argument(
        "--exact",
        action="store_true",
        help="unbounded language equality by subset exploration (small automata only; "
        "--relation language only)",
    )
    p_chk.set_defaults(fn=cmd_check)

    p_rep = sub.add_parser("reproduce", parents=[formatted, seeded], help="run the bundled verification suite")
    p_rep.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # the namespace starts out holding the command line that reports echo
        args = parser.parse_args(argv, argparse.Namespace(command_line=["mph", *argv]))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text, code = args.fn(args)
    except (UsageError, ModelFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
