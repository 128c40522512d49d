"""Scripted offline stand-in for the LLM backend.

The mock actually reads the prompt: it parses the serialized traveler
blocks back into raw values and computes scores deterministically, so
experiments run end to end without a network and produce identical bytes on
every run. Two scoring modes:

- "rule": every traveler is scored with a registered label rule, with or
  without labeled examples in the prompt. With the same rule and zero noise
  the generator's labels are recovered exactly.
- "nn": with labeled examples present, each query gets the label of its
  nearest example (reference-scaled Euclidean distance); with none, a
  deliberately misaligned prior is used. Accuracy then improves sharply
  once examples appear, mimicking the few-shot vs zero-context contrast.

Prompts that do not follow the rendering grammar raise MockError.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
from numpy.random import default_rng

from .client import LlmParams, LlmResponse
from .errors import MockError, SchemaError
from .prompting import (
    IMPORTANCES_OPEN,
    LABEL_LINE,
    QUERY_HEADER,
    SCORES_OPEN,
    SUPPORT_HEADER,
    Prompt,
)
from .rules import (
    SCORE_MAX,
    SCORE_MIN,
    encode_reference,
    get_rule,
    misaligned_prior,
    rule_importance,
)
from .schema import CATEGORICAL, VariableSchema, default_schema

_LABEL_PREFIX = "  " + LABEL_LINE


class ScriptedMock:
    """Backend-compatible deterministic responder."""

    def __init__(self, rule: str = "linear", mode: str = "nn",
                 schema: VariableSchema | None = None,
                 noise_seed: int = 0, noise_scale: float = 0.0,
                 importance: dict[str, float] | None = None):
        if mode not in ("rule", "nn"):
            raise SchemaError(f"unknown mock mode {mode!r}")
        self.rule_name = rule
        self.rule = get_rule(rule)
        self.mode = mode
        self.schema = schema or default_schema()
        self.noise_seed = noise_seed
        self.noise_scale = noise_scale
        if importance is not None:
            total = sum(importance.values())
            importance = {k: v / total for k, v in importance.items()}
        self.importance = importance
        self.calls = 0

    # -- prompt parsing ----------------------------------------------------

    def _parse_record(self, block: str, labeled: bool):
        lines = block.splitlines()
        m = re.match(r"Traveler (\S+)$", lines[0])
        if not m:
            raise MockError(f"bad traveler header: {lines[0]!r}")
        record_id = m.group(1)
        values: dict[str, float] = {}
        label = None
        for line in lines[1:]:
            if line.startswith(_LABEL_PREFIX):
                try:
                    label = float(line[len(_LABEL_PREFIX):].strip())
                except ValueError:
                    raise MockError(f"bad label line: {line!r}") from None
                continue
            if line.startswith("    "):
                name, sep, rendered = line.strip().partition(": ")
                if not sep:
                    raise MockError(f"bad variable line: {line!r}")
                var_name = name.replace(" ", "_")
                try:
                    var = self.schema.variable(var_name)
                except SchemaError:
                    raise MockError(f"unknown variable {var_name!r} in prompt") from None
                if var.kind == CATEGORICAL:
                    try:
                        values[var_name] = float(var.code_for(rendered.strip()))
                    except SchemaError:
                        raise MockError(
                            f"{var_name}: unknown category label {rendered!r}"
                        ) from None
                else:
                    try:
                        values[var_name] = float(rendered.split()[0])
                    except (ValueError, IndexError):
                        raise MockError(
                            f"{var_name}: unparseable value {rendered!r}"
                        ) from None
                continue
            if re.match(r"  \S.*:$", line):
                continue  # dimension heading
            raise MockError(f"unrecognized prompt line: {line!r}")
        missing = [n for n in self.schema.names if n not in values]
        if missing:
            raise MockError(f"traveler {record_id}: missing variables {missing}")
        if labeled and label is None:
            raise MockError(f"example traveler {record_id} has no label line")
        if not labeled and label is not None:
            raise MockError(f"query traveler {record_id} unexpectedly has a label")
        return record_id, values, label

    def _parse_section(self, text: str, labeled: bool):
        records = []
        for block in re.split(r"\n\s*\n", text.strip()):
            if block.strip():
                records.append(self._parse_record(block, labeled))
        return records

    def _parse_user_text(self, user_text: str):
        if QUERY_HEADER not in user_text:
            raise MockError("prompt has no query section")
        before, _, after = user_text.partition(QUERY_HEADER)
        examples = []
        if SUPPORT_HEADER in before:
            _, _, support_text = before.partition(SUPPORT_HEADER)
            examples = self._parse_section(support_text, labeled=True)
        elif before.strip():
            raise MockError("unexpected text before the query section")
        queries = self._parse_section(after, labeled=False)
        if not queries:
            raise MockError("prompt has an empty query section")
        return examples, queries

    # -- scoring -----------------------------------------------------------

    def _noise(self, record_id: str) -> float:
        if self.noise_scale == 0.0:
            return 0.0
        digest = hashlib.sha256(f"{self.noise_seed}:{record_id}".encode()).digest()
        rng = default_rng(int.from_bytes(digest[:8], "big"))
        return float(rng.uniform(-self.noise_scale, self.noise_scale))

    def _score(self, record_id: str, values: dict[str, float], examples) -> float:
        if self.mode == "rule":
            raw = self.rule(values) + self._noise(record_id)
        elif examples:
            target = encode_reference(values, self.schema)
            best_label, best_d2 = None, None
            for _, ex_values, ex_label in examples:
                vec = encode_reference(ex_values, self.schema)
                d2 = float(np.sum((vec - target) ** 2))
                if best_d2 is None or d2 < best_d2:
                    best_label, best_d2 = ex_label, d2
            raw = best_label
        else:
            raw = misaligned_prior(values) + self._noise(record_id)
        return min(SCORE_MAX, max(SCORE_MIN, raw))

    def complete(self, prompt: Prompt, params: LlmParams) -> LlmResponse:
        self.calls += 1
        examples, queries = self._parse_user_text(prompt.user_text)
        lines = [f"{rid},{repr(self._score(rid, values, examples))}"
                 for rid, values, _ in queries]
        parts = [SCORES_OPEN, *lines, "```"]
        if IMPORTANCES_OPEN in prompt.system_text:
            weights = self.importance or rule_importance(self.rule_name)
            parts += ["", IMPORTANCES_OPEN]
            parts += [f"{name.replace('_', ' ')}={weights.get(name, 0.0):.6f}"
                      for name in self.schema.names]
            parts.append("```")
        parts += ["", "Scores follow commuting burden and mode comfort relative "
                      "to the presented profiles."]
        return LlmResponse(content="\n".join(parts),
                           reasoning="Compared each traveler against the "
                                     "presented profiles before scoring.")
