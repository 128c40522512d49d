"""Prompt rendering and response parsing.

Records are serialized as plain text grouped by the four survey dimensions,
with units and category labels spelled out. One generator, _layout, holds
that traveler-block format, and one plan per kind of block (labeled or not)
compiled from it serves both directions (_write_plan: one %-format template
of a whole block, per value its key and, for a category, the label of each
code, and the walked layout). The renderers write blocks by the plan's
template; read_prompt, their inverse (the scripted mock reads prompts with
it), reads each value back by walking the plan's layout, by the loader's
rule (dataset.parse_value). It is strict by one whole-prompt round trip: a
prompt reads back only if rendering the records read gives exactly its
text. No other module writes or reads the format. render_zero_shot and
render_few_shot are one body, _render: it checks the queries, then a
few-shot prompt's support, and joins the support section, when there is
one, and the query section under the system template of its kind, read and
split around its output-contract field once per template.

A run writes and reads each traveler block once and compiles each plan once:
the renderers and read_prompt take an optional Blocks, owned by the caller
for the length of one run. It caches each record's block text by
(id(record), with_label), each block text's record by (text, with_label),
and the two plans; every prompt is built by joining cached blocks, and the
round trip re-renders the records read through the same Blocks. Each text
entry holds its record, so an id in the cache cannot be reused by another
record while the cache lives. A block's record depends on its text and kind
alone, so a cached record is exactly what a fresh read gives; a refused
block is not cached and is refused again, with the same message, on every
read. Each entry is stored by one dict assignment and never changed, so
threads may share one Blocks: two that miss the same block both make it and
store equal entries, and either serves every later use.

Replies follow a strict fenced-block contract (docs/output_contract.md),
and this module alone writes and reads it: write_response writes a
```scores block of "id,score" lines, plus a ```importances block of
"name=weight" lines when weights were asked for; parse_response, its exact
inverse, reads both through one key=value block reader that checks each
block's keys against the query ids or the predictor names. Everything else
in a reply is kept as free-text reasoning.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .dataset import RespondentRecord, parse_value
from .errors import ContaminationError, ParseError, PromptError, RowError, SchemaError
from .schema import (
    CATEGORICAL,
    DIMENSIONS,
    SCORE_MAX,
    SCORE_MIN,
    Variable,
    VariableSchema,
    default_schema,
)

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

    @property
    def asks_importances(self) -> bool:
        """Whether the output contract asks for an importances block."""
        return IMPORTANCES_OPEN in self.system_text


@dataclass(frozen=True)
class PredictionBatch:
    """Parsed model output for one batch of queries."""

    scores: dict[str, float]
    importances: dict[str, float] | None
    reasoning: str


_TRAVELER = "Traveler "


def _layout(schema: VariableSchema,
            with_label: bool) -> Iterator[tuple[str, Variable | None, str]]:
    """The traveler-block layout: each line after the "Traveler <id>" header
    as (text before the value, variable, text after the value).

    A dimension heading is fixed text with no variable. A predictor line
    holds a category label or a number and its unit; the label line, last
    and only when with_label, holds the satisfaction label. The renderers
    write blocks by walking this layout and read_prompt reads them back by
    the same walk.
    """
    for dimension in DIMENSIONS:
        variables = schema.by_dimension(dimension)
        if variables:
            yield f"  {dimension.replace('_', ' ').capitalize()}:", None, ""
        for var in variables:
            unit = " " + var.unit if var.unit and var.kind != CATEGORICAL else ""
            yield f"    {var.name.replace('_', ' ')}: ", var, unit
    if with_label:
        yield f"  {LABEL_LINE} ", schema.label, ""


class _Plan(NamedTuple):
    """_layout compiled for one kind of block: a %-format template of a
    whole block, and per value it takes after the record id, (the values
    key, or None for the label; each code's label, or None for a number;
    the variable), for writing; the walked layout, for reading."""

    template: str
    slots: tuple[tuple[str | None, dict[int, str] | None, Variable], ...]
    layout: tuple[tuple[str, Variable | None, str], ...]


def _write_plan(schema: VariableSchema, with_label: bool) -> _Plan:
    layout = tuple(_layout(schema, with_label))
    lines = [_TRAVELER + "%s"]
    slots = []
    for head, var, tail in layout:
        if var is None:
            lines.append(head.replace("%", "%%"))
            continue
        if var is schema.label:
            value, slot = "%r", (None, None, var)
        elif var.kind == CATEGORICAL:
            value, slot = "%s", (var.name, dict(var.categories), var)
        else:
            value, slot = "%.6g", (var.name, None, var)
        lines.append(head.replace("%", "%%") + value + tail.replace("%", "%%"))
        slots.append(slot)
    return _Plan("\n".join(lines), tuple(slots), layout)


def _write_block(record: RespondentRecord, plan: _Plan) -> str:
    values = record.values
    try:
        return plan.template % (record.record_id, *[
            float(record.satisfaction) if key is None
            else float(values[key]) if labels is None
            else labels[int(values[key])]
            for key, labels, _ in plan.slots])
    except KeyError:
        # raise what a walk of the layout meets first: a value the record
        # lacks, or a code with no label (label_for's SchemaError)
        for key, labels, var in plan.slots:
            if key is not None:
                value = values[key]
                if labels is not None:
                    var.label_for(int(value))
        raise


def _read_block(block: str, plan: _Plan, label: Variable) -> RespondentRecord:
    layout = plan.layout
    lines = block.split("\n")
    record_id = lines[0][len(_TRAVELER):]
    if len(lines) != len(layout) + 1:
        raise PromptError(f"traveler {record_id}: {len(lines) - 1} lines, "
                          f"expected {len(layout)}")
    values: dict[str, float] = {}
    satisfaction = math.nan
    for line, (head, var, tail) in zip(lines[1:], layout):
        if var is None:
            continue
        text = line[len(head):len(line) - len(tail)]
        try:
            value = parse_value(var, var.code_for(text) if var.kind == CATEGORICAL
                                else text)
        except (SchemaError, ValueError) as exc:
            raise PromptError(f"traveler {record_id}: line {line!r}: {exc}") from None
        if var is label:
            satisfaction = value
        else:
            values[var.name] = value
    try:
        return RespondentRecord(record_id, values, satisfaction)
    except RowError as exc:  # an id no reply could carry
        raise PromptError(f"traveler block {lines[0]!r}: {exc}") from None


class Blocks:
    """The traveler blocks the renders and reads of one run share, for one
    schema."""

    def __init__(self):
        # (id(record), with_label) -> (record, block text); the entry keeps
        # the record alive, so no other record takes its id
        self.texts: dict[tuple[int, bool], tuple[RespondentRecord, str]] = {}
        # (block text, with_label) -> the record _read_block made from it;
        # a block it refused has no entry
        self.records: dict[tuple[str, bool], RespondentRecord] = {}
        # with_label -> the plan, compiled when a block is first missing
        self.plans: dict[bool, _Plan] = {}

    def plan(self, schema: VariableSchema, with_label: bool) -> _Plan:
        plan = self.plans.get(with_label)
        if plan is None:
            plan = self.plans[with_label] = _write_plan(schema, with_label)
        return plan


def _write_section(records: Sequence[RespondentRecord], schema: VariableSchema,
                   with_label: bool, blocks: Blocks) -> str:
    cached = blocks.texts
    texts = []
    for record in records:
        key = (id(record), with_label)
        entry = cached.get(key)
        if entry is None:
            plan = blocks.plan(schema, with_label)
            entry = cached[key] = (record, _write_block(record, plan))
        texts.append(entry[1])
    return "\n\n".join(texts)


def _read_section(texts: Sequence[str], schema: VariableSchema, with_label: bool,
                  blocks: Blocks) -> list[RespondentRecord]:
    cached = blocks.records
    records = []
    for text in texts:
        key = (text, with_label)
        record = cached.get(key)
        if record is None:
            plan = blocks.plan(schema, with_label)
            record = cached[key] = _read_block(text, plan, schema.label)
        records.append(record)
    return records


def read_prompt(user_text: str, schema: VariableSchema, *,
                blocks: Blocks | None = None
                ) -> tuple[list[RespondentRecord], list[RespondentRecord]]:
    """Read back the user text of render_zero_shot or render_few_shot.

    Returns (labeled examples, queries): no examples for zero-shot, and NaN
    satisfaction on every query. Each value is read by the loader's rule,
    dataset.parse_value, and the text reads back only if rendering the
    records read writes exactly that text again; anything else raises
    PromptError, naming the first line that differs.

    blocks, when given, caches each traveler block's record, and the
    blocks those records write, across the reads and renders of one run
    (one schema); None reads every block. The records and refusals are the
    same either way, but with blocks the same block text gives the same
    record object on every read, so callers must not change its values.
    """
    blocks = Blocks() if blocks is None else blocks
    sections = user_text.removesuffix("\n").split("\n\n")
    at = sections.index(QUERY_HEADER) if QUERY_HEADER in sections else len(sections)
    examples = _read_section(sections[1:at], schema, True, blocks)
    queries = _read_section(sections[at + 1:], schema, False, blocks)
    written = _render(examples or None, queries, schema, False, blocks).user_text
    if written != user_text:
        # zip_longest: a missing or extra last line differs from None
        pairs = itertools.zip_longest(user_text.split("\n"), written.split("\n"))
        number, (got, expected) = next((n, pair) for n, pair in enumerate(pairs, 1)
                                       if pair[0] != pair[1])
        raise PromptError(f"line {number}: got {got!r}, expected {expected!r}, "
                          "as the renderers write it")
    return examples, queries


# the output contract's fixed text; only the importances part names the
# schema's predictors
_SCORES_CONTRACT = "\n".join([
    "Answer with a fenced block in exactly this form:",
    "",
    SCORES_OPEN,
    "<traveler id>,<score>",
    "```",
    "",
    "with one line per traveler, in the order the travelers were presented.",
    f"Scores are decimal numbers between {SCORE_MIN:g} and {SCORE_MAX:g}.",
])
_IMPORTANCES_CONTRACT = "\n".join([
    "",
    "Then add a second fenced block in exactly this form:",
    "",
    IMPORTANCES_OPEN,
    "<variable name>=<weight>",
    "```",
    "",
    "with one line per predictor variable, using non-negative weights",
    "that sum to 1 and reflect how strongly each variable drove your",
    "predictions. The predictor variables are: ",
])
_CONTRACT_END = "\n\nAfter the fenced block(s) you may briefly explain your reasoning."


def _output_contract(schema: VariableSchema, want_importance: bool) -> str:
    if not want_importance:
        return _SCORES_CONTRACT + _CONTRACT_END
    names = ", ".join(n.replace("_", " ") for n in schema.names)
    return f"{_SCORES_CONTRACT}\n{_IMPORTANCES_CONTRACT}{names}.{_CONTRACT_END}"


@functools.cache
def _load_template(name: str) -> tuple[str, ...]:
    """A system template's text around its {output_contract} field, read and
    split once per name: templates are fixed at run time, renders are many.
    Joining the parts with a contract formats the template with it."""
    text = resources.files("travelsat").joinpath(f"templates/{name}").read_text("utf-8")
    return tuple(text.format(output_contract="\x00").split("\x00"))


def _render(support: Sequence[RespondentRecord] | None, queries: Iterable[RespondentRecord],
            schema: VariableSchema | None, want_importance: bool,
            blocks: Blocks | None) -> Prompt:
    """The one body of render_zero_shot (support None) and render_few_shot."""
    schema = schema or default_schema()
    blocks = Blocks() if blocks is None else blocks
    queries = list(queries)
    ids = [q.record_id for q in queries]
    if not ids:
        raise PromptError("no query records to render")
    if len(set(ids)) != len(ids):
        repeated = next(i for i, count in Counter(ids).items() if count > 1)
        raise PromptError(f"duplicate query record ids: {repeated}")
    user = QUERY_HEADER + "\n\n"
    template = "zero_shot_system.txt"
    if support is not None:
        if not support:
            raise PromptError("few-shot prompt needs a non-empty support set; "
                              "use render_zero_shot for the zero-context case")
        overlap = sorted({r.record_id for r in support} & set(ids))
        if overlap:
            raise ContaminationError(
                f"support and query sets share record ids: {', '.join(overlap)}"
            )
        user = (SUPPORT_HEADER + "\n\n"
                + _write_section(support, schema, True, blocks)
                + "\n\n" + user)
        template = "few_shot_system.txt"
    system = _output_contract(schema, want_importance).join(_load_template(template))
    user += _write_section(queries, schema, False, blocks) + "\n"
    return Prompt(system_text=system, user_text=user)


def render_zero_shot(queries: Sequence[RespondentRecord],
                     schema: VariableSchema | None = None,
                     want_importance: bool = False, *,
                     blocks: Blocks | None = None) -> Prompt:
    """Prompt for scoring queries with no labeled examples.

    blocks, when given, caches traveler blocks and their plans across the
    renders and reads of one run (one schema); None writes every block.
    """
    return _render(None, queries, schema, want_importance, blocks)


def render_few_shot(support: Sequence[RespondentRecord], queries: Sequence[RespondentRecord],
                    schema: VariableSchema | None = None,
                    want_importance: bool = False, *,
                    blocks: Blocks | None = None) -> Prompt:
    """Prompt with labeled support examples followed by unlabeled queries;
    blocks as in render_zero_shot."""
    return _render(support, queries, schema, want_importance, blocks)


def batched(items: Sequence, batch_size: int) -> Iterable[Sequence]:
    if batch_size <= 0:
        raise PromptError("batch_size must be positive")
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]


# a block opens with ```<kind>, spaces or tabs and a line break
_OPENERS = {kind: re.compile(rf"```{kind}[ \t]*\n") for kind in ("scores", "importances")}


def _find_block(text: str, kind: str, start: int = 0) -> tuple[int, str, int] | None:
    """The first ```<kind> block of text at or after start, as (where it
    opens, its body, where it ends), or None. The body runs from the line
    after the opener to the first ``` after it, less the line break before
    that fence."""
    opener = _OPENERS[kind].search(text, start)
    if opener is None:
        return None
    close = text.find("```", opener.end())
    if close < 0:
        return None
    body = text[opener.end():close]
    return opener.start(), body[:-1] if body.endswith("\n") else body, close + 3


# block kind -> (key/value separator, what a key is, what a value is, the
# closed range of a value)
_PAIRS = {"scores": (",", "id", "score", SCORE_MIN, SCORE_MAX),
          "importances": ("=", "variable", "importance", 0.0, math.inf)}


def write_response(scores: Mapping[str, float],
                   importances: Mapping[str, float] | None, commentary: str) -> str:
    """A reply in the output contract: scores as repr, names with spaces
    for underscores, weights at six decimals (no importances block when
    importances is None), then the commentary after a blank line."""
    parts = [SCORES_OPEN, *(f"{i},{float(score)!r}" for i, score in scores.items()), "```"]
    if importances is not None:
        parts += ["", IMPORTANCES_OPEN,
                  *(f"{name.replace('_', ' ')}={weight:.6f}"
                    for name, weight in importances.items()), "```"]
    return "\n".join(parts + ["", commentary])


def _read_pairs(text: str, lf_text: str, kind: str, keys: Sequence[str]) -> dict[str, float]:
    """The first ```<kind> block of lf_text (text with CRLF read as LF) as
    {key: value}, one line per key in keys (blank lines skipped, spaces in
    importance names read as underscores). A missing block, an unreadable
    line, a repeated key, a value out of range or other keys than keys raise
    ParseError carrying text."""
    separator, key_noun, value_noun, low, high = _PAIRS[kind]
    block = _find_block(lf_text, kind)
    if block is None:
        raise ParseError(f"response has no ```{kind} block", raw_text=text)
    names = kind == "importances"
    pairs: dict[str, float] = {}
    for line in block[1].splitlines():
        key, found, rendered = line.partition(separator)
        if not found:
            if not line.strip():
                continue
            raise ParseError(f"bad {kind} line (no {separator!r}): {line.strip()!r}",
                             raw_text=text)
        key = key.strip()
        if names:
            key = key.replace(" ", "_")
        try:
            value = float(rendered)
        except ValueError:
            raise ParseError(f"bad {value_noun} for {key!r}: {rendered.strip()!r}",
                             raw_text=text) from None
        if key in pairs:
            raise ParseError(f"duplicate {value_noun} line for {key!r}", raw_text=text)
        if not low <= value <= high:
            raise ParseError(f"{value_noun} {value} for {key!r} outside "
                             f"[{low:g}, {high:g}]", raw_text=text)
        pairs[key] = value + 0.0  # -0 reads as 0
    expected = set(keys)
    if pairs.keys() != expected:
        missing = [k for k in keys if k not in pairs]
        extra = [k for k in pairs if k not in expected]
        raise ParseError(f"{key_noun} mismatch: missing {missing or 'none'}, "
                         f"unexpected {extra or 'none'}", raw_text=text)
    return pairs


def parse_response(text: str, expected_ids: Sequence[str],
                   importance_names: Sequence[str] | None = None) -> PredictionBatch:
    """Parse a model response against the output contract.

    importance_names, when given, are the predictors whose weights were
    asked for; the reply must weigh exactly those. Raises ParseError
    (carrying the raw text) when a block is missing or a line unreadable,
    ids or names differ from the expected ones, a score falls outside
    [1, 7], a weight is negative, or the weights sum outside [0.98, 1.02];
    inside that band they are renormalized to sum exactly 1. CRLF reads as
    LF, and a value written -0 as 0.
    """
    lf_text = text.replace("\r\n", "\n")
    scores = _read_pairs(text, lf_text, "scores", expected_ids)
    importances = None
    if importance_names is not None:
        raw = _read_pairs(text, lf_text, "importances", importance_names)
        total = sum(raw.values())
        if not 0.98 <= total <= 1.02:
            raise ParseError(f"importance weights sum to {total:.4f}, not close to 1",
                             raw_text=text)
        importances = {name: weight / total for name, weight in raw.items()}
    # every fenced block is cut from the reasoning, scores blocks first
    reasoning = lf_text
    for kind in _OPENERS:
        kept, start = [], 0
        while (block := _find_block(reasoning, kind, start)) is not None:
            kept.append(reasoning[start:block[0]])
            start = block[2]
        reasoning = "".join(kept) + reasoning[start:]
    return PredictionBatch(scores=scores, importances=importances,
                           reasoning=reasoning.strip())
