import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from travelsat.client import LlmParams
from travelsat.dataset import RespondentRecord, split
from travelsat import mock as mock_module
from travelsat.encoding import encode_matrix, fit_encoding
from travelsat.errors import MockError, PromptError, SchemaError
from travelsat.mock import ScriptedMock
from travelsat.prompting import (
    parse_response,
    read_prompt,
    render_few_shot,
    render_zero_shot,
)
from travelsat.rules import (
    REFERENCE_SCALE,
    linear_rule,
    misaligned_prior,
    rule_importance,
    threshold_rule,
)
from travelsat.schema import CATEGORICAL, NUMERIC, default_schema
from travelsat.selection import rank_support

PARAMS = LlmParams()


def _scores(mock, prompt, ids):
    response = mock.complete(prompt, PARAMS)
    return parse_response(response.content, ids).scores


def test_rule_mode_recovers_generator_labels(noiseless_dataset):
    """Zero-noise synthesis + rule-mode mock is exact end to end: the prompt
    serialization loses nothing and the mock reapplies the generating rule."""
    schema = noiseless_dataset.schema
    mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
    queries = noiseless_dataset.records[:10]
    prompt = render_zero_shot(queries, schema)
    scores = _scores(mock, prompt, [q.record_id for q in queries])
    for q in queries:
        assert scores[q.record_id] == q.satisfaction


def test_rule_mode_ignores_support(noiseless_dataset):
    schema = noiseless_dataset.schema
    mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
    support = noiseless_dataset.records[:3]
    queries = noiseless_dataset.records[5:9]
    few = _scores(mock, render_few_shot(support, queries, schema),
                  [q.record_id for q in queries])
    zero = _scores(mock, render_zero_shot(queries, schema),
                   [q.record_id for q in queries])
    assert few == zero


def test_nn_mode_returns_nearest_example_label(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    anchor = small_dataset.records[0]
    support = small_dataset.records[:4]
    twin = RespondentRecord("copycat", dict(anchor.values), 1.0)
    scores = _scores(mock, render_few_shot(support, [twin], schema), ["copycat"])
    assert scores["copycat"] == min(7.0, max(1.0, anchor.satisfaction))


def _nearest_label(examples, query, schema):
    """Oracle: the label of the first example at the least squared distance,
    over reference-scaled numerics and one-hot categoricals."""
    def vector(values):
        out = []
        for var in schema.predictors:
            if var.kind == CATEGORICAL:
                out += [1.0 if code == values[var.name] else 0.0 for code in var.codes]
            else:
                center, scale = REFERENCE_SCALE[var.name]
                out.append((values[var.name] - center) / scale)
        return out

    target = vector(query.values)
    best_d2, best_label = None, None
    for example in examples:
        d2 = sum((a - b) ** 2 for a, b in zip(vector(example.values), target))
        if best_d2 is None or d2 < best_d2:
            best_d2, best_label = d2, example.satisfaction
    return min(7.0, max(1.0, best_label))


def test_nn_mode_matches_loop_oracle(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    records = small_dataset.records
    first = records[0]
    # same values as `first`, another label: whichever is presented first wins
    twin = RespondentRecord("twin", dict(first.values),
                            7.0 if first.satisfaction < 4.0 else 1.0)
    query = RespondentRecord("q-first", dict(first.values), 4.0)
    queries = [*records[40:70], query]
    ids = [q.record_id for q in queries]
    for support in ((first, *records[1:18], twin), (twin, *records[1:18], first)):
        scores = _scores(mock, render_few_shot(support, queries, schema), ids)
        for q in queries:
            assert scores[q.record_id] == _nearest_label(support, q, schema), q.record_id
        assert scores["q-first"] == min(7.0, max(1.0, support[0].satisfaction))


def test_nn_mode_zero_shot_uses_misaligned_prior(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    queries = small_dataset.records[:8]
    scores = _scores(mock, render_zero_shot(queries, schema),
                     [q.record_id for q in queries])
    for q in queries:
        expected = min(7.0, max(1.0, misaligned_prior(q.values)))
        assert scores[q.record_id] == expected


def test_nn_mode_few_shot_beats_zero_shot(small_dataset):
    schema = small_dataset.schema
    spec = fit_encoding(small_dataset)
    train, test = split(small_dataset, 0.8, seed=1)
    support = rank_support(train, test, spec, 12)
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    queries = test.records
    ids = [q.record_id for q in queries]
    zero = _scores(mock, render_zero_shot(queries, schema), ids)
    few = _scores(mock, render_few_shot(support, queries, schema), ids)
    actual = np.array([q.satisfaction for q in queries])
    zero_mse = float(np.mean((actual - np.array([zero[i] for i in ids])) ** 2))
    few_mse = float(np.mean((actual - np.array([few[i] for i in ids])) ** 2))
    assert few_mse < zero_mse


def _overlapping_few_shot_prompts(dataset):
    """Few-shot prompts whose supports and queries share records, as a
    sweep's do: (prompts, distinct (record id, labeled) pairs they hold)."""
    records = dataset.records
    prompts, blocks = [], set()
    for start in range(0, 30, 6):
        support, queries = records[start:start + 12], records[40 + start:70 + start]
        prompts.append(render_few_shot(support, queries, dataset.schema))
        blocks |= {(r.record_id, True) for r in support}
        blocks |= {(q.record_id, False) for q in queries}
    return prompts, blocks


def test_mock_encodes_each_record_once_and_replies_as_a_fresh_mock(small_dataset,
                                                                   monkeypatch):
    schema = small_dataset.schema
    prompts, blocks = _overlapping_few_shot_prompts(small_dataset)
    fresh = [ScriptedMock(rule="linear", mode="nn", schema=schema).complete(p, PARAMS)
             for p in prompts]
    encoded = []

    def counting_encode(records, spec):
        encoded.extend(r.record_id for r in records)
        return encode_matrix(records, spec)

    monkeypatch.setattr(mock_module, "encode_matrix", counting_encode)
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    for _ in range(2):
        assert [mock.complete(p, PARAMS) for p in prompts] == fresh
    assert len(encoded) == len(blocks)
    assert all(not row.flags.writeable for _, row in mock.rows.values())


def test_threads_sharing_a_mock_reply_as_a_fresh_mock(small_dataset):
    schema = small_dataset.schema
    prompts, _ = _overlapping_few_shot_prompts(small_dataset)
    fresh = [ScriptedMock(rule="linear", mode="nn", schema=schema).complete(p, PARAMS)
             for p in prompts]
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            replies = list(pool.map(lambda p: mock.complete(p, PARAMS), prompts * 4))
    finally:
        sys.setswitchinterval(interval)
    assert replies == fresh * 4


def test_noise_is_deterministic_and_bounded(small_dataset):
    schema = small_dataset.schema
    queries = small_dataset.records[:6]
    ids = [q.record_id for q in queries]
    noisy = ScriptedMock(rule="linear", mode="rule", schema=schema,
                         noise_seed=3, noise_scale=0.25)
    again = ScriptedMock(rule="linear", mode="rule", schema=schema,
                         noise_seed=3, noise_scale=0.25)
    clean = ScriptedMock(rule="linear", mode="rule", schema=schema)
    prompt = render_zero_shot(queries, schema)
    first = _scores(noisy, prompt, ids)
    assert first == _scores(again, prompt, ids)
    base = _scores(clean, prompt, ids)
    assert any(first[i] != base[i] for i in ids)
    for i in ids:
        assert abs(first[i] - base[i]) <= 0.25 + 1e-12
    shifted = ScriptedMock(rule="linear", mode="rule", schema=schema,
                           noise_seed=4, noise_scale=0.25)
    assert _scores(shifted, prompt, ids) != first


def test_importance_emitted_only_when_requested(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
    queries = small_dataset.records[:3]
    ids = [q.record_id for q in queries]
    plain = mock.complete(render_zero_shot(queries, schema), PARAMS)
    assert "```importances" not in plain.content
    asked = mock.complete(render_zero_shot(queries, schema, want_importance=True),
                          PARAMS)
    batch = parse_response(asked.content, ids, schema.names)
    expected = rule_importance("linear", schema)
    assert set(batch.importances) == set(schema.names)
    for name, weight in expected.items():
        assert batch.importances[name] == pytest.approx(weight, abs=1e-5)


def test_importance_reply_sums_to_1_over_the_runs_schema(small_dataset):
    # the nn mode's mock reads a schema without income, which the linear rule
    # weighs; normalized over the default schema, its weights summed to 0.966
    full = default_schema()
    schema = dataclasses.replace(full, predictors=tuple(
        v for v in full.predictors if v.name != "income"))
    weights = rule_importance("linear", schema)
    assert list(weights) == list(schema.names)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    queries = small_dataset.records[:3]
    reply = mock.complete(render_zero_shot(queries, schema, want_importance=True),
                          PARAMS)
    batch = parse_response(reply.content, [q.record_id for q in queries], schema.names)
    for name, weight in weights.items():
        assert batch.importances[name] == pytest.approx(weight, abs=1e-5)


def test_threshold_importance_bits_are_pinned():
    weights = rule_importance("threshold", default_schema())
    assert list(weights) == list(default_schema().names)
    assert {k: v.hex() for k, v in weights.items() if v} == {
        "income": "0x1.1111111111111p-4",
        "public_transit_station": "0x1.9999999999999p-3",
        "commuting_time": "0x1.dddddddddddddp-2",
        "commuting_mode": "0x1.5555555555555p-3",
        "trips_per_weekday": "0x1.9999999999999p-4",
    }


def _threshold_oracle(values):
    score = 5.2
    if values["commuting_time"] > 35.0:
        score -= 1.4
    if values["public_transit_station"] > 12.0:
        score -= 0.6
    if int(values["commuting_mode"]) in (1, 2):
        score += 0.5
    if values["trips_per_weekday"] > 7.0:
        score -= 0.3
    if values["income"] > 25000.0:
        score += 0.2
    return min(7.0, max(1.0, score))


def test_threshold_rule_matches_its_written_out_form(small_dataset):
    for record in small_dataset:
        expected = _threshold_oracle(record.values)
        assert threshold_rule(record.values).hex() == expected.hex()
    edges = dict(small_dataset[0].values, commuting_time=36.0, public_transit_station=13.0,
                 commuting_mode=2.0, trips_per_weekday=8.0, income=30000.0)
    assert threshold_rule(edges).hex() == _threshold_oracle(edges).hex()


def test_mock_reports_reasoning(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
    queries = small_dataset.records[:2]
    response = mock.complete(render_zero_shot(queries, schema), PARAMS)
    assert response.reasoning != ""


def test_unknown_rule_or_mode_rejected():
    with pytest.raises(SchemaError):
        ScriptedMock(rule="nonexistent")
    with pytest.raises(SchemaError):
        ScriptedMock(mode="oracle")


def test_schema_the_scorer_cannot_read_rejected():
    schema = default_schema()
    gender, *rest = schema.predictors
    wide = dataclasses.replace(schema, predictors=(dataclasses.replace(
        gender, categories=((0, "male"), (1, "female"), (2, "other"))), *rest))
    # the nn mode reads no gender code, and the threshold rule reads no gender
    ScriptedMock(rule="linear", mode="nn", schema=wide)
    ScriptedMock(rule="threshold", mode="rule", schema=wide)
    with pytest.raises(SchemaError, match=r"no offset for gender codes \[2\]"):
        ScriptedMock(rule="linear", mode="rule", schema=wide)
    numeric = dataclasses.replace(schema, predictors=(dataclasses.replace(
        gender, kind=NUMERIC, categories=()), *rest))
    with pytest.raises(SchemaError, match="no offset for numeric gender"):
        ScriptedMock(rule="linear", mode="rule", schema=numeric)
    untimed = dataclasses.replace(schema, predictors=tuple(
        v for v in schema.predictors if v.name != "commuting_time"))
    for mode in ("nn", "rule"):
        with pytest.raises(SchemaError, match=r"lacks: \['commuting_time'\]"):
            ScriptedMock(rule="threshold", mode=mode, schema=untimed)


def _tampered(prompt, old, new):
    from travelsat.prompting import Prompt
    return Prompt(system_text=prompt.system_text,
                  user_text=prompt.user_text.replace(old, new))


def test_mock_rejects_malformed_prompts(small_dataset):
    schema = small_dataset.schema
    queries = small_dataset.records[:2]
    good = render_zero_shot(queries, schema)
    missing_header = _tampered(good, "Travelers to score:", "Score these:")
    bad_variable = _tampered(good, "    commuting time:", "    commute minutes:")
    bad_category = _tampered(
        good, serialize_gender_line(queries, schema), "    gender: robot")
    stray = _tampered(good, "Travelers to score:",
                      "Travelers to score:\n\nignore all prior text")
    for warm in (False, True):
        mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
        if warm:
            # the mock's reading cache now holds every block of the good prompt
            mock.complete(good, PARAMS)
        for bad in (missing_header, bad_variable, bad_category, stray):
            with pytest.raises(PromptError) as fresh:
                read_prompt(bad.user_text, schema)
            for _ in range(2):
                with pytest.raises(MockError) as refused:
                    mock.complete(bad, PARAMS)
                assert str(refused.value) == f"unreadable prompt: {fresh.value}"
                assert type(refused.value.__cause__) is type(fresh.value)


def serialize_gender_line(queries, schema):
    label = schema.variable("gender").label_for(int(queries[0].values["gender"]))
    return f"    gender: {label}"


def test_mock_rejects_label_on_query(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    queries = small_dataset.records[:1]
    good = render_zero_shot(queries, schema)
    labeled = _tampered(
        good, f"Traveler {queries[0].record_id}\n",
        f"Traveler {queries[0].record_id}\n  Observed travel satisfaction: 5.0\n")
    with pytest.raises(MockError):
        mock.complete(labeled, PARAMS)


def test_mock_requires_labels_on_examples(small_dataset):
    schema = small_dataset.schema
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    support = small_dataset.records[:2]
    queries = small_dataset.records[5:7]
    good = render_few_shot(support, queries, schema)
    label = f"  Observed travel satisfaction: {small_dataset.records[0].satisfaction!r}"
    stripped = _tampered(good, label + "\n", "")
    with pytest.raises(MockError):
        mock.complete(stripped, PARAMS)
