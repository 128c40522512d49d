"""Prompt rendering and response parsing.

Records are serialized as plain text grouped by the four survey dimensions,
with units and category labels spelled out. Responses must follow a strict
fenced-block contract (see docs/output_contract.md): a ```scores block with
one "id,score" line per traveler, plus a ```importances block when variable
weights were requested. Everything else in the response is kept as
free-text reasoning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .dataset import RespondentRecord
from .errors import ContaminationError, ParseError, PromptError
from .schema import CATEGORICAL, DIMENSIONS, VariableSchema, default_schema, dimension_title
from .selection import SupportSet

DEFAULT_BATCH_SIZE = 20

SCORES_OPEN = "```scores"
IMPORTANCES_OPEN = "```importances"

SUPPORT_HEADER = "Labeled example travelers:"
QUERY_HEADER = "Travelers to score:"
LABEL_LINE = "Observed travel satisfaction:"


@dataclass(frozen=True)
class Prompt:
    system_text: str
    user_text: str

    @property
    def token_estimate(self) -> int:
        # 4 characters per token is close enough for budgeting
        return (len(self.system_text) + len(self.user_text)) // 4

    def as_bytes(self) -> bytes:
        return (self.system_text + "\x00" + self.user_text).encode("utf-8")


@dataclass(frozen=True)
class PredictionBatch:
    """Parsed model output for one batch of queries."""

    scores: dict[str, float]
    importances: dict[str, float] | None
    reasoning: str


def _display_name(variable: str) -> str:
    return variable.replace("_", " ")


def format_number(value: float) -> str:
    return format(float(value), ".6g")


def serialize_record(record: RespondentRecord, schema: VariableSchema,
                     with_label: bool) -> str:
    """One traveler as an indented text block grouped by dimension."""
    lines = [f"Traveler {record.record_id}"]
    for dimension in DIMENSIONS:
        variables = schema.by_dimension(dimension)
        if not variables:
            continue
        lines.append(f"  {dimension_title(dimension)}:")
        for var in variables:
            value = record.values[var.name]
            if var.kind == CATEGORICAL:
                rendered = var.label_for(int(value))
            else:
                rendered = format_number(value)
                if var.unit:
                    rendered += f" {var.unit}"
            lines.append(f"    {_display_name(var.name)}: {rendered}")
    if with_label:
        lines.append(f"  {LABEL_LINE} {repr(float(record.satisfaction))}")
    return "\n".join(lines)


def _output_contract(schema: VariableSchema, want_importance: bool) -> str:
    parts = [
        "Answer with a fenced block in exactly this form:",
        "",
        SCORES_OPEN,
        "<traveler id>,<score>",
        "```",
        "",
        "with one line per traveler, in the order the travelers were presented.",
        "Scores are decimal numbers between 1 and 7.",
    ]
    if want_importance:
        parts += [
            "",
            "Then add a second fenced block in exactly this form:",
            "",
            IMPORTANCES_OPEN,
            "<variable name>=<weight>",
            "```",
            "",
            "with one line per predictor variable, using non-negative weights",
            "that sum to 1 and reflect how strongly each variable drove your",
            "predictions. The predictor variables are: "
            + ", ".join(_display_name(n) for n in schema.names) + ".",
        ]
    parts += [
        "",
        "After the fenced block(s) you may briefly explain your reasoning.",
    ]
    return "\n".join(parts)


def _load_template(name: str) -> str:
    return resources.files("travelsat").joinpath(f"templates/{name}").read_text("utf-8")


def _check_queries(queries: Sequence[RespondentRecord]) -> None:
    if not queries:
        raise PromptError("no query records to render")
    ids = [q.record_id for q in queries]
    if len(set(ids)) != len(ids):
        raise PromptError("duplicate query record ids")


def render_zero_shot(queries: Sequence[RespondentRecord],
                     schema: VariableSchema | None = None,
                     want_importance: bool = False) -> Prompt:
    """Prompt for scoring queries with no labeled examples."""
    schema = schema or default_schema()
    queries = list(queries)
    _check_queries(queries)
    system = _load_template("zero_shot_system.txt").format(
        output_contract=_output_contract(schema, want_importance))
    blocks = [serialize_record(q, schema, with_label=False) for q in queries]
    user = QUERY_HEADER + "\n\n" + "\n\n".join(blocks) + "\n"
    return Prompt(system_text=system, user_text=user)


def render_few_shot(support: SupportSet, queries: Sequence[RespondentRecord],
                    schema: VariableSchema | None = None,
                    want_importance: bool = False) -> Prompt:
    """Prompt with labeled support examples followed by unlabeled queries."""
    schema = schema or default_schema()
    queries = list(queries)
    _check_queries(queries)
    if support.k == 0:
        raise PromptError("few-shot prompt needs a non-empty support set; "
                          "use render_zero_shot for the zero-context case")
    overlap = sorted(set(support.ids) & {q.record_id for q in queries})
    if overlap:
        raise ContaminationError(
            f"support and query sets share record ids: {', '.join(overlap)}"
        )
    system = _load_template("few_shot_system.txt").format(
        output_contract=_output_contract(schema, want_importance))
    support_blocks = [serialize_record(r, schema, with_label=True)
                      for r in support.records]
    query_blocks = [serialize_record(q, schema, with_label=False) for q in queries]
    user = (SUPPORT_HEADER + "\n\n" + "\n\n".join(support_blocks) + "\n\n"
            + QUERY_HEADER + "\n\n" + "\n\n".join(query_blocks) + "\n")
    return Prompt(system_text=system, user_text=user)


def batched(items: Sequence, batch_size: int) -> Iterable[Sequence]:
    if batch_size <= 0:
        raise PromptError("batch_size must be positive")
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]


_BLOCK_RE = {
    "scores": re.compile(r"```scores[ \t]*\n(.*?)\n?```", re.DOTALL),
    "importances": re.compile(r"```importances[ \t]*\n(.*?)\n?```", re.DOTALL),
}


def _extract_block(text: str, kind: str) -> str | None:
    m = _BLOCK_RE[kind].search(text)
    return m.group(1) if m else None


def parse_response(text: str, expected_ids: Sequence[str],
                   want_importance: bool = False) -> PredictionBatch:
    """Parse a model response against the output contract.

    Raises ParseError (carrying the raw text) when the scores block is
    missing, ids do not match the expected set exactly, a score falls
    outside [1, 7], or a requested importance block is absent or does not
    sum close enough to 1. Importance weights within 2% of unit sum are
    renormalized to sum exactly 1.
    """
    expected = list(expected_ids)
    scores_block = _extract_block(text, "scores")
    if scores_block is None:
        raise ParseError("response has no ```scores block", raw_text=text)
    scores: dict[str, float] = {}
    for line in scores_block.splitlines():
        line = line.strip()
        if not line:
            continue
        if "," not in line:
            raise ParseError(f"bad scores line (no comma): {line!r}", raw_text=text)
        record_id, _, rendered = line.partition(",")
        record_id = record_id.strip()
        try:
            score = float(rendered.strip())
        except ValueError:
            raise ParseError(f"bad score for {record_id!r}: {rendered.strip()!r}",
                             raw_text=text) from None
        if record_id in scores:
            raise ParseError(f"duplicate score line for {record_id!r}", raw_text=text)
        if not 1.0 <= score <= 7.0:
            raise ParseError(f"score {score} for {record_id!r} outside [1, 7]",
                             raw_text=text)
        scores[record_id] = score
    missing = [i for i in expected if i not in scores]
    extra = [i for i in scores if i not in expected]
    if missing or extra:
        raise ParseError(
            f"id mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}",
            raw_text=text,
        )

    importances = None
    if want_importance:
        imp_block = _extract_block(text, "importances")
        if imp_block is None:
            raise ParseError("response has no ```importances block", raw_text=text)
        raw: dict[str, float] = {}
        for line in imp_block.splitlines():
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"bad importance line (no '='): {line!r}",
                                 raw_text=text)
            name, _, rendered = line.partition("=")
            name = name.strip().replace(" ", "_")
            try:
                weight = float(rendered.strip())
            except ValueError:
                raise ParseError(f"bad importance weight for {name!r}: "
                                 f"{rendered.strip()!r}", raw_text=text) from None
            if weight < 0:
                raise ParseError(f"negative importance for {name!r}", raw_text=text)
            if name in raw:
                raise ParseError(f"duplicate importance line for {name!r}",
                                 raw_text=text)
            raw[name] = weight
        total = sum(raw.values())
        if not 0.98 <= total <= 1.02:
            raise ParseError(f"importance weights sum to {total:.4f}, not close to 1",
                             raw_text=text)
        importances = {name: weight / total for name, weight in raw.items()}

    reasoning = text
    for kind in ("scores", "importances"):
        reasoning = _BLOCK_RE[kind].sub("", reasoning)
    return PredictionBatch(scores=scores, importances=importances,
                           reasoning=reasoning.strip())
