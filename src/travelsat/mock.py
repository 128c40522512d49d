"""Scripted offline stand-in for the LLM backend.

The mock actually reads the prompt: prompting.read_prompt turns the
serialized traveler blocks back into records, and the mock scores them
deterministically, so experiments run end to end without a network and
produce identical bytes on every run. Two scoring modes:

- "rule": every traveler is scored with a registered label rule, with or
  without labeled examples in the prompt. With the same rule and zero noise
  the generator's labels are recovered exactly.
- "nn": with labeled examples present, each query gets the label of its
  most similar example by selection.similarity_matrix, the similarity that
  ranks few-shot support, in the encoding of encoding.encoding_spec with
  the rules' fixed reference scales (the first of equally similar examples
  wins); with none, a deliberately misaligned prior is used.
  Accuracy then improves sharply once examples appear, mimicking the
  few-shot vs zero-context contrast.

Replies are written by prompting.write_response, with the rule's fixed
weights over the run's schema when the prompt asks for importances; prompts
that read_prompt rejects raise MockError.

Each mock owns one prompting.Blocks, so it reads each distinct traveler
block once for as long as it lives, which is one run: a few-shot sweep
sends the same support and query blocks in many prompts. The records and
the refusals are exactly those of a fresh read_prompt. The client's pool
threads call complete concurrently and share the cache; that is safe
because an entry is stored whole and never changed (see prompting), and
the mock never changes a record it reads. Beside its Blocks the mock keeps
each read record's encoded row, keyed by the record's identity (the entry
holds the record, so no other record takes its id), and builds the example
and query matrices of a few-shot prompt from those rows: a record is
encoded once per run, not once per prompt it appears in. A row is
encode_matrix's row for that record, whatever records it was encoded with,
so the replies do not change; the threads share the rows as they share the
Blocks.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .client import LlmParams, LlmResponse
from .dataset import RespondentRecord
from .encoding import encode_matrix, encoding_spec
from .errors import MockError, PromptError, SchemaError
from .prompting import Blocks, Prompt, read_prompt, write_response
from .rules import (REFERENCE_SCALE, check_schema, clamp, get_rule, misaligned_prior,
                    rule_importance)
from .schema import VariableSchema, default_schema
from .selection import similarity_matrix


class ScriptedMock:
    """Backend-compatible deterministic responder."""

    def __init__(self, rule: str = "linear", mode: str = "nn",
                 schema: VariableSchema | None = None,
                 noise_seed: int = 0, noise_scale: float = 0.0):
        if mode not in ("rule", "nn"):
            raise SchemaError(f"unknown mock mode {mode!r}")
        self.rule_name = rule
        self.rule = get_rule(rule)
        self.mode = mode
        self.schema = schema or default_schema()
        # the nn mode never scores by the rule: by misaligned_prior with no examples
        check_schema(self.schema, rule if mode == "rule" else "misaligned_prior")
        # numerics without a reference scale enter the similarity unscaled
        self.spec = encoding_spec(self.schema, {
            name: REFERENCE_SCALE.get(name, (0.0, 1.0)) for name in self.schema.names})
        self.noise_seed = noise_seed
        self.noise_scale = noise_scale
        self.blocks = Blocks()
        # id(record) -> (record, its encoded row), for the records read
        self.rows: dict[int, tuple[RespondentRecord, np.ndarray]] = {}

    def _noise(self, record_id: str) -> float:
        if self.noise_scale == 0.0:
            return 0.0
        digest = hashlib.sha256(f"{self.noise_seed}:{record_id}".encode()).digest()
        rng = default_rng(int.from_bytes(digest[:8], "big"))
        return float(rng.uniform(-self.noise_scale, self.noise_scale))

    def _encode(self, records: Sequence[RespondentRecord]) -> np.ndarray:
        """encode_matrix(records, self.spec), encoding only the records that
        have no row yet."""
        rows = self.rows
        missing = [record for record in records if id(record) not in rows]
        if missing:
            encoded = encode_matrix(missing, self.spec)
            encoded.flags.writeable = False
            for record, row in zip(missing, encoded):
                rows[id(record)] = (record, row)
        return np.array([rows[id(record)][1] for record in records])

    def _scores(self, examples, queries) -> list[float]:
        if self.mode == "rule":
            raw = [self.rule(q.values) + self._noise(q.record_id) for q in queries]
        elif examples:
            # argmax takes the first of equal similarities: earlier examples win
            nearest = similarity_matrix(self._encode(queries),
                                        self._encode(examples)).argmax(axis=1)
            raw = [examples[i].satisfaction for i in nearest]
        else:
            raw = [misaligned_prior(q.values) + self._noise(q.record_id)
                   for q in queries]
        return [clamp(score) for score in raw]

    def complete(self, prompt: Prompt, params: LlmParams) -> LlmResponse:
        try:
            examples, queries = read_prompt(prompt.user_text, self.schema,
                                            blocks=self.blocks)
        except PromptError as exc:
            raise MockError(f"unreadable prompt: {exc}") from exc
        scores = dict(zip((q.record_id for q in queries), self._scores(examples, queries)))
        weights = (rule_importance(self.rule_name, self.schema)
                   if prompt.asks_importances else None)
        commentary = ("Scores follow commuting burden and mode comfort relative "
                      "to the presented profiles.")
        return LlmResponse(content=write_response(scores, weights, commentary),
                           reasoning="Compared each traveler against the "
                                     "presented profiles before scoring.")
