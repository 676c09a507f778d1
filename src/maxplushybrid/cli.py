"""Command-line surface: eval, simulate, translate, abstract, check, reproduce.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (the
report carries a witness), 2 for usage or model errors.  Reports print as
JSON or text; their content is deterministic for a fixed seed, so two runs
with the same arguments compare byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import equivalence, fixtures, hybrid, mpa, reproduce, smpl
from .serialization import (
    ModelDocument,
    ModelFormatError,
    build_smpl,
    decode_vector,
    encode_weight,
    maha_body,
    fa_body,
    parse_model,
    serialize_body,
    smpl_body,
)
from .tropical import EPS, TropicalMatrix


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    command: list[str]
    payload: dict[str, Any] = field(default_factory=dict)
    verdict: bool | None = None
    document_output: str | None = None  # replaces the report on stdout

    def to_json(self) -> str:
        doc = {"command": self.command, **self.payload}
        if self.verdict is not None:
            doc["verdict"] = self.verdict
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"$ {' '.join(self.command)}"]
        lines.extend(_text_lines(self.payload))
        if self.verdict is not None:
            lines.append(f"verdict: {'true' if self.verdict else 'false'}")
        return "\n".join(lines) + "\n"


def _text_lines(value: Any, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {sub}")
    elif isinstance(value, list):
        for sub in value:
            if isinstance(sub, (dict, list)):
                lines.extend(_text_lines(sub, indent + "  "))
            else:
                lines.append(f"{indent}- {sub}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _load_document(path: str) -> ModelDocument:
    if path == "-":
        return parse_model(sys.stdin.read())
    if path in fixtures.FIXTURE_NAMES:
        return parse_model(fixtures.fixture_text(path))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_model(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read model {path!r}: {exc}") from exc


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Bare symbol string when every symbol is one character, else
    comma-separated."""
    if "," in text:
        word = tuple(part for part in text.split(",") if part)
    elif all(len(symbol) == 1 for symbol in alphabet):
        word = tuple(text)
    else:
        word = (text,) if text else ()
    for symbol in word:
        if symbol not in alphabet:
            raise UsageError(f"symbol {symbol!r} is not in the alphabet {list(alphabet)}")
    return word


def cmd_eval(args: argparse.Namespace) -> tuple[RunReport, int]:
    doc = _load_document(args.model)
    report = RunReport(command=_echo(args))
    if doc.kind == "mpa":
        automaton: mpa.MaxPlusAutomaton = doc.model
        word = parse_word(args.word, automaton.alphabet)
        value = mpa.eval_output(automaton, word)
        report.payload = {
            "word": list(word),
            "output": encode_weight(value),
            "accepted": value != EPS,
        }
        return report, 0
    if doc.kind == "fa":
        fa = doc.model
        word = parse_word(args.word, fa.alphabet)
        accepted = fa.accepts(word)
        report.payload = {"word": list(word), "accepted": accepted}
        report.verdict = accepted
        return report, 0 if accepted else 1
    raise UsageError(f"eval expects an mpa or fa document, got {doc.kind!r}")


def _step_inputs_from_args(args: argparse.Namespace, doc: ModelDocument) -> tuple[smpl.StepInput, ...]:
    if args.word is not None and args.inputs is not None:
        raise UsageError("pass either --word or --inputs, not both")
    if args.word is not None:
        symbols = _symbols_of(doc)
        if symbols is None:
            raise UsageError("this model takes structured inputs; use --inputs")
        return smpl.word_inputs(parse_word(args.word, symbols))
    if args.inputs is None:
        raise UsageError("simulate needs --word or --inputs")
    try:
        with open(args.inputs, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read inputs {args.inputs!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"inputs file is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise UsageError("inputs file must hold a JSON list of steps")
    steps = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise UsageError(f"inputs[{k}] must be an object with u, v, w, r, p fields")
        w = entry.get("w")
        if w is not None and not isinstance(w, str):
            raise UsageError(f"inputs[{k}].w must be a symbol string")
        signals = {key: decode_vector(entry.get(key, []), f"inputs[{k}].{key}") for key in "uvrp"}
        steps.append(smpl.StepInput(w=w, **signals))
    return tuple(steps)


def _symbols_of(doc: ModelDocument) -> tuple[str, ...] | None:
    if doc.kind == "mpa":
        return doc.model.alphabet
    if doc.kind == "smpl":
        return doc.model.switching.symbols
    if doc.kind == "maha":
        return doc.model.discrete_inputs or None
    if doc.kind == "fa":
        return doc.model.alphabet
    return None


def cmd_simulate(args: argparse.Namespace) -> tuple[RunReport, int]:
    doc = _load_document(args.model)
    report = RunReport(command=_echo(args))
    inputs = _step_inputs_from_args(args, doc)
    if args.steps is not None:
        inputs = inputs[: args.steps]
    if doc.kind == "mpa":
        automaton = doc.model
        row = TropicalMatrix.row_vector(automaton.alpha)
        records = []
        for k, inp in enumerate(inputs, start=1):
            row = mpa.step_row(automaton, row, inp.w)
            records.append(
                {
                    "k": k,
                    "symbol": inp.w,
                    "state": [encode_weight(v) for v in row.entries],
                    "output": encode_weight(mpa.row_value(automaton, row.entries)),
                }
            )
        report.payload = {"trace": records}
        return report, 0
    if doc.kind == "smpl":
        trace = smpl.simulate(doc.model, inputs)
        report.payload = _smpl_trace_payload(trace)
        return report, 0
    if doc.kind == "maha":
        trace = hybrid.run(doc.model, inputs)
        records = [
            {
                "k": rec.k,
                "mode": rec.mode,
                "x": [encode_weight(v) for v in rec.x],
                "y": [encode_weight(v) for v in rec.y],
            }
            for rec in trace.records
        ]
        report.payload = {"trace": records, "halted_at": trace.halted_at}
        return report, 0
    raise UsageError(f"simulate expects an mpa, smpl or maha document, got {doc.kind!r}")


def _smpl_trace_payload(trace: smpl.SmplTrace) -> dict:
    records = [
        {
            "k": rec.k,
            "mode": rec.mode,
            "successor_modes": list(rec.successor_modes),
            "x": [encode_weight(v) for v in rec.x],
            "y": [encode_weight(v) for v in rec.y],
        }
        for rec in trace.records
    ]
    return {"trace": records, "halted_at": trace.halted_at}


def cmd_translate(args: argparse.Namespace) -> tuple[RunReport, int]:
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
        body = maha_body(inner, loop="open", meta={"name": f"{doc.name or 'mpa'}-as-maha"})
    elif doc.kind == "smpl" and target == "maha":
        loop = "closed" if doc.model.closed_loop else "open"
        body = maha_body(doc.body, loop=loop, meta={"name": f"{doc.name or 'smpl'}-as-maha"})
    else:
        raise UsageError(f"no translation from {doc.kind!r} to {target!r}")
    return RunReport(command=_echo(args), document_output=serialize_body(body)), 0


def cmd_abstract(args: argparse.Namespace) -> tuple[RunReport, int]:
    doc = _load_document(args.model)
    if doc.kind == "mpa":
        if args.style == "fused":
            raise UsageError("the fused style applies to maha documents")
        fa = mpa.to_finite_abstraction(doc.model)
    elif doc.kind == "maha":
        if args.style == "fused":
            try:
                fa = hybrid.mpa_chain_abstraction(doc.model)
            except hybrid.WrongProvenance as exc:
                raise UsageError(str(exc)) from exc
        else:
            try:
                fa = hybrid.finite_abstraction(doc.model)
            except hybrid.AssumptionViolation as exc:
                raise UsageError(str(exc)) from exc
    else:
        raise UsageError(f"abstract expects an mpa or maha document, got {doc.kind!r}")
    body = fa_body(fa, meta={"name": f"{doc.name or doc.kind}-abstraction"})
    return RunReport(command=_echo(args), document_output=serialize_body(body)), 0


def _behaviour_adapter(doc: ModelDocument) -> equivalence.BehaviourSystem:
    if doc.kind == "mpa":
        return equivalence.MpaBehaviour(doc.model)
    if doc.kind == "smpl":
        return equivalence.SmplBehaviour(doc.model)
    if doc.kind == "maha":
        return equivalence.MahaBehaviour(doc.model)
    raise UsageError(f"behaviour checks need mpa, smpl or maha documents, got {doc.kind!r}")


def _behaviour_inputs(doc1: ModelDocument, doc2: ModelDocument, bound: int, seed: int):
    symbols = _symbols_of(doc1) or _symbols_of(doc2)
    if symbols is None:
        raise UsageError("neither model declares a discrete input alphabet")
    widths = {"u": 0, "r": 0, "p": 0}
    for doc in (doc1, doc2):
        system = doc.model if doc.kind == "smpl" else None
        if doc.kind == "maha":
            system = build_smpl(doc.body["system"])
        if system is not None:
            d = system.dims
            # a controller computes u itself, so only open loops take it as input
            for key, width in (("u", 0 if system.closed_loop else d.n_u), ("r", d.n_r), ("p", d.n_p)):
                widths[key] = max(widths[key], width)
    if not any(widths.values()):
        regime = "exhaustive"
        seqs = [smpl.word_inputs(w) for w in equivalence.exhaustive_words(symbols, bound)]
    else:
        regime = "sampled"
        rng = random.Random(seed)
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


def cmd_check(args: argparse.Namespace) -> tuple[RunReport, int]:
    doc1 = _load_document(args.model1)
    doc2 = _load_document(args.model2)
    report = RunReport(command=_echo(args))
    relation = args.relation
    if relation in ("language", "simulation", "bisimulation"):
        if doc1.kind != "fa" or doc2.kind != "fa":
            raise UsageError(f"{relation} checks compare fa documents; abstract first")
        fa1, fa2 = doc1.model, doc2.model
        if relation == "language":
            if args.exact:
                equal, witness = equivalence.language_equal_exact(fa1, fa2)
                report.payload = {"mode": "exact"}
            else:
                equal, witness = equivalence.language_equal_upto(fa1, fa2, args.bound)
                report.payload = {"bound": args.bound}
            report.verdict = equal
            if witness is not None:
                report.payload["witness"] = list(witness)
            return report, 0 if equal else 1
        witness_rel = (
            equivalence.greatest_simulation(fa1, fa2)
            if relation == "simulation"
            else equivalence.bisimulation(fa1, fa2)
        )
        report.verdict = witness_rel is not None
        if witness_rel is not None:
            report.payload = {"witness_pairs": sorted(map(list, witness_rel.pairs))}
        return report, 0 if witness_rel is not None else 1
    if relation == "behaviour":
        regime, seqs = _behaviour_inputs(doc1, doc2, args.bound, args.seed)
        ok, counterexample = equivalence.behavioural_inclusion_upto(
            _behaviour_adapter(doc1), _behaviour_adapter(doc2), seqs
        )
        report.verdict = ok
        report.payload = {"bound": args.bound, "regime": regime}
        if counterexample is not None:
            # r and p only when drawn, so witnesses of u-only models keep their form
            report.payload["witness"] = [
                {"w": inp.w, "u": [encode_weight(v) for v in inp.u]}
                | {key: [encode_weight(v) for v in getattr(inp, key)] for key in "rp" if getattr(inp, key)}
                for inp in counterexample
            ]
        return report, 0 if ok else 1
    raise UsageError(f"unknown relation {relation!r}")


def cmd_reproduce(args: argparse.Namespace) -> tuple[RunReport, int]:
    results = reproduce.run_suite(seed=args.seed)
    report = RunReport(command=_echo(args))
    report.payload = {
        "seed": args.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
    }
    all_ok = all(r.passed for r in results)
    report.verdict = all_ok
    return report, 0 if all_ok else 1


def _echo(args: argparse.Namespace) -> list[str]:
    return list(getattr(args, "_argv", []))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mph",
        description=(
            "Max-plus automata, switching max-plus linear systems and "
            "max-algebraic hybrid automata: evaluation, simulation, "
            "translation, abstraction and equivalence checking."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--bound", type=int, default=6)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a word on an automaton")
    p_eval.add_argument("model")
    p_eval.add_argument("--word", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_sim = sub.add_parser("simulate", parents=[common], help="run a model on an input sequence")
    p_sim.add_argument("model")
    p_sim.add_argument("--word")
    p_sim.add_argument("--inputs")
    p_sim.add_argument("-K", "--steps", type=int, default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_tr = sub.add_parser("translate", parents=[common], help="translate between model classes")
    p_tr.add_argument("model")
    p_tr.add_argument("--to", required=True, choices=("smpl", "maha"))
    p_tr.set_defaults(fn=cmd_translate)

    p_abs = sub.add_parser("abstract", parents=[common], help="finite-state discrete abstraction")
    p_abs.add_argument("model")
    p_abs.add_argument("--style", choices=("standard", "fused"), default="standard")
    p_abs.set_defaults(fn=cmd_abstract)

    p_chk = sub.add_parser("check", parents=[common], help="check a relation between two models")
    p_chk.add_argument("model1")
    p_chk.add_argument("model2")
    p_chk.add_argument(
        "--relation",
        required=True,
        choices=("language", "simulation", "bisimulation", "behaviour"),
    )
    p_chk.add_argument(
        "--exact",
        action="store_true",
        help="unbounded language equality by subset exploration (small automata only)",
    )
    p_chk.set_defaults(fn=cmd_check)

    p_rep = sub.add_parser("reproduce", parents=[common], help="run the bundled verification suite")
    p_rep.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._argv = ["mph"] + argv
    try:
        report, code = args.fn(args)
    except (UsageError, ModelFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if report.document_output is not None:
        sys.stdout.write(report.document_output)
        return code
    output = report.to_json() if args.format == "json" else report.to_text()
    if args.command == "reproduce" and args.format == "text":
        output = _reproduce_table(report)
    sys.stdout.write(output)
    return code


def _reproduce_table(report: RunReport) -> str:
    lines = [f"$ {' '.join(report.command)}"]
    width = max(len(c["name"]) for c in report.payload["checks"])
    for check in report.payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"{check['name']:<{width}}  {status}  {check['details']}")
    lines.append(
        f"{report.payload['passed']}/{report.payload['total']} checks passed "
        f"(seed {report.payload['seed']})"
    )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
