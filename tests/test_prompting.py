import dataclasses
import gc
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from travelsat.client import LlmParams
from travelsat.dataset import RespondentRecord, split
from travelsat.errors import (
    ContaminationError,
    MockError,
    ParseError,
    PromptError,
    RowError,
    SchemaError,
)
from travelsat import prompting
from travelsat.mock import ScriptedMock
from travelsat.prompting import (
    DEFAULT_BATCH_SIZE,
    Blocks,
    IMPORTANCES_OPEN,
    LABEL_LINE,
    Prompt,
    QUERY_HEADER,
    SCORES_OPEN,
    SUPPORT_HEADER,
    _layout,
    _load_template,
    _read_block,
    _write_block,
    _write_plan,
    batched,
    parse_response,
    read_prompt,
    render_few_shot,
    render_zero_shot,
    write_response,
)
from travelsat.rules import linear_rule
from travelsat.schema import CATEGORICAL, NUMERIC, Variable, VariableSchema, default_schema
from travelsat.selection import rank_support
from travelsat.encoding import fit_encoding


@pytest.fixture()
def prompt_parts(small_dataset):
    train, test = split(small_dataset, 0.8, seed=0)
    spec = fit_encoding(small_dataset)
    support = rank_support(train, test, spec, 6)
    queries = test.records[:5]
    return small_dataset.schema, support, queries


def test_serialize_record_layout(small_dataset):
    record, query = small_dataset.records[:2]
    # the user text's sections: header, the one example block, header, query
    text = render_few_shot((record,), [query],
                           small_dataset.schema).user_text.split("\n\n")[1]
    lines = text.splitlines()
    assert lines[0] == f"Traveler {record.record_id}"
    assert sum(1 for l in lines if l.endswith(":") and l.startswith("  ")) == 4
    assert text.count("Observed travel satisfaction:") == 1
    assert "commuting mode: " in text
    assert "minutes" in text  # units rendered for walk-time numerics
    unlabeled = render_zero_shot([record], small_dataset.schema).user_text.split("\n\n")[1]
    assert lines[:-1] == unlabeled.splitlines()
    assert "Observed travel satisfaction:" not in unlabeled


def test_serialize_categories_as_words(small_dataset):
    text = render_zero_shot(small_dataset.records[:1],
                            small_dataset.schema).user_text.split("\n\n")[1]
    # codes never leak into the prompt for the gender field
    assert "gender: male" in text or "gender: female" in text


def test_zero_shot_prompt_contents(prompt_parts):
    schema, _, queries = prompt_parts
    prompt = render_zero_shot(queries, schema)
    assert "Travelers to score:" in prompt.user_text
    assert "Labeled example travelers:" not in prompt.user_text
    assert "Observed travel satisfaction:" not in prompt.user_text
    assert SCORES_OPEN in prompt.system_text
    assert IMPORTANCES_OPEN not in prompt.system_text
    assert "score out of convenience" in prompt.system_text
    for q in queries:
        assert prompt.user_text.count(f"Traveler {q.record_id}\n") == 1
    assert prompt.token_estimate > 0


def test_few_shot_prompt_contents(prompt_parts):
    schema, support, queries = prompt_parts
    prompt = render_few_shot(support, queries, schema)
    assert prompt.user_text.index("Labeled example travelers:") < \
        prompt.user_text.index("Travelers to score:")
    # labels attach to support records only
    assert prompt.user_text.count("Observed travel satisfaction:") == len(support)
    support_part = prompt.user_text.partition("Travelers to score:")[0]
    for record in support:
        assert f"Traveler {record.record_id}\n" in support_part


def test_importance_request_lists_variables(prompt_parts):
    schema, _, queries = prompt_parts
    prompt = render_zero_shot(queries, schema, want_importance=True)
    assert IMPORTANCES_OPEN in prompt.system_text
    assert "commuting time" in prompt.system_text


def test_prompt_determinism(prompt_parts):
    schema, support, queries = prompt_parts
    a = render_few_shot(support, queries, schema)
    b = render_few_shot(support, queries, schema)
    assert a.as_bytes() == b.as_bytes()
    assert b"\x00" in a.as_bytes()


def test_templates_are_read_once_per_name(prompt_parts):
    schema, support, queries = prompt_parts
    _load_template.cache_clear()
    cold = render_few_shot(support, queries, schema).as_bytes()
    warm = render_few_shot(support, queries, schema).as_bytes()
    assert cold == warm
    info = _load_template.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_duplicate_query_ids_rejected(prompt_parts):
    schema, _, queries = prompt_parts
    for blocks in (None, Blocks()):
        with pytest.raises(PromptError) as excinfo:
            render_zero_shot([queries[1], queries[0], queries[2], queries[0]], schema,
                             blocks=blocks)
        assert str(excinfo.value) == f"duplicate query record ids: {queries[0].record_id}"


def test_empty_queries_rejected(prompt_parts):
    schema, support, _ = prompt_parts
    with pytest.raises(PromptError):
        render_zero_shot([], schema)
    with pytest.raises(PromptError):
        render_few_shot(support, [], schema)


def test_empty_support_rejected(prompt_parts):
    schema, _, queries = prompt_parts
    with pytest.raises(PromptError):
        render_few_shot((), queries, schema)


def test_support_query_overlap_rejected(prompt_parts):
    schema, support, _ = prompt_parts
    for blocks in (None, Blocks()):
        with pytest.raises(ContaminationError) as excinfo:
            render_few_shot(support, [support[0]], schema, blocks=blocks)
        assert support[0].record_id in str(excinfo.value)


def test_batched():
    items = list(range(10))
    chunks = list(batched(items, 4))
    assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert list(batched(items, 20)) == [items]
    with pytest.raises(PromptError):
        list(batched(items, 0))
    assert DEFAULT_BATCH_SIZE == 20


GOOD_RESPONSE = """Looking at commute times first.

```scores
q1,4.5
q2,3.25
```

Shorter commutes scored higher.
"""


def test_parse_response_happy_path():
    batch = parse_response(GOOD_RESPONSE, ["q1", "q2"])
    assert batch.scores == {"q1": 4.5, "q2": 3.25}
    assert batch.importances is None
    assert "```" not in batch.reasoning
    assert "Looking at commute times first." in batch.reasoning
    assert "Shorter commutes scored higher." in batch.reasoning


def test_parse_response_importances():
    text = GOOD_RESPONSE + "\n```importances\nage=0.4\ncommuting time=0.6\n```\n"
    batch = parse_response(text, ["q1", "q2"], ["age", "commuting_time"])
    assert batch.importances == {"age": 0.4, "commuting_time": 0.6}


def test_parse_renormalizes_near_unit_sums():
    text = "```scores\nq1,4\n```\n```importances\nage=0.50\nincome=0.51\n```"
    batch = parse_response(text, ["q1"], ["age", "income"])
    assert sum(batch.importances.values()) == 1.0
    assert batch.importances["age"] == pytest.approx(0.50 / 1.01, abs=1e-15)


def test_parse_rejects_far_from_unit_sums():
    text = "```scores\nq1,4\n```\n```importances\nage=0.5\nincome=0.8\n```"
    with pytest.raises(ParseError) as excinfo:
        parse_response(text, ["q1"], ["age", "income"])
    assert "sum" in str(excinfo.value)


def test_parse_missing_scores_block():
    with pytest.raises(ParseError) as excinfo:
        parse_response("no fences here", ["q1"])
    assert excinfo.value.raw_text == "no fences here"


def test_parse_id_mismatch():
    with pytest.raises(ParseError) as excinfo:
        parse_response("```scores\nq1,4\n```", ["q1", "q2"])
    assert "q2" in str(excinfo.value)
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,4\nzz,5\n```", ["q1"])
    # a CRLF reply is read as its LF form, and a refusal keeps the text as sent
    crlf = "```scores\r\nq1,4\r\n```\r\n"
    with pytest.raises(ParseError, match="missing \\['q2'\\]") as excinfo:
        parse_response(crlf, ["q1", "q2"])
    assert excinfo.value.raw_text == crlf


def test_parse_duplicate_id():
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,4\nq1,5\n```", ["q1"])


def test_parse_score_out_of_range():
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,0.5\n```", ["q1"])
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,7.01\n```", ["q1"])
    parse_response("```scores\nq1,1\n```", ["q1"])  # boundary values accepted
    parse_response("```scores\nq1,7\n```", ["q1"])


def test_parse_unparseable_score():
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,high\n```", ["q1"])
    with pytest.raises(ParseError):
        parse_response("```scores\nq1 4\n```", ["q1"])


def test_parse_missing_importance_block():
    with pytest.raises(ParseError):
        parse_response("```scores\nq1,4\n```", ["q1"], ["age"])


def test_parse_negative_importance():
    text = "```scores\nq1,4\n```\n```importances\nage=-0.1\nincome=1.1\n```"
    with pytest.raises(ParseError):
        parse_response(text, ["q1"], ["age", "income"])


def test_parse_duplicate_importance():
    text = "```scores\nq1,4\n```\n```importances\nage=0.5\nage=0.5\n```"
    with pytest.raises(ParseError) as excinfo:
        parse_response(text, ["q1"], ["age"])
    assert "duplicate" in str(excinfo.value)


@pytest.mark.parametrize("lines", [
    "age=0.5\n",                                    # omits income
    "age=0.4\nincome=0.4\ngender=0.2\n",            # adds gender
    "age=0.5\nincome level=0.5\n",                  # misnames income
    "age=0.5\ncommute time=0.5\n",                  # near miss of commuting time
])
def test_importances_must_name_exactly_the_predictors(lines):
    text = f"```scores\nq1,4\n```\n```importances\n{lines}```\n"
    with pytest.raises(ParseError) as excinfo:
        parse_response(text, ["q1"], ["age", "income"])
    assert excinfo.value.raw_text == text
    assert "variable mismatch" in str(excinfo.value)


@pytest.mark.parametrize("batch_size", [1, 3, 5])
def test_round_trip_through_mock(prompt_parts, batch_size):
    schema, support, queries = prompt_parts
    mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
    params = LlmParams()
    merged: dict[str, float] = {}
    for chunk in batched(list(queries), batch_size):
        prompt = render_few_shot(support, chunk, schema)
        response = mock.complete(prompt, params)
        batch = parse_response(response.content, [q.record_id for q in chunk])
        merged.update(batch.scores)
    assert set(merged) == {q.record_id for q in queries}
    for score in merged.values():
        assert 1.0 <= score <= 7.0


# pieces of well-formed and malformed replies, so fuzzed text gets past the
# search for a scores block and into the line parsers
NUMBER = st.one_of(st.sampled_from(["4.5", "1", "7", "0.5", "0.25", "-0.1",
                                    "1e309", "nan", "inf", "", "x"]),
                   st.floats().map(repr))
SCORE_LINE = st.tuples(st.one_of(st.sampled_from(["q1", "q2", " q1 "]), st.text(max_size=3)),
                       st.sampled_from([",", ";", ""]), NUMBER).map("".join)
IMPORTANCE_LINE = st.tuples(st.sampled_from(["age", "income", "commuting time", ""]),
                            st.sampled_from(["=", ":"]), NUMBER).map("".join)


def reply_block(opener, line):
    return st.lists(line, max_size=4).map(
        lambda lines: opener + "\n" + "\n".join(lines) + "\n```\n")


FUZZED_REPLY = st.one_of(
    st.text(),
    st.lists(st.one_of(
        st.sampled_from([SCORES_OPEN, IMPORTANCES_OPEN, "```", "\n", ",", "=",
                         SUPPORT_HEADER, QUERY_HEADER, LABEL_LINE]),
        st.text(max_size=5),
        st.just(f"{SCORES_OPEN}\nq1,4.5\nq2,1\n```\n"),
        reply_block(SCORES_OPEN, SCORE_LINE),
        reply_block(IMPORTANCES_OPEN, IMPORTANCE_LINE),
    ), max_size=8).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(text=FUZZED_REPLY, names=st.sampled_from([None, ("age", "income", "commuting_time")]))
def test_parse_response_raises_only_parse_error(text, names):
    try:
        batch = parse_response(text, ["q1", "q2"], names)
    except ParseError as exc:
        assert exc.raw_text == text
        return
    assert set(batch.scores) == {"q1", "q2"}
    assert all(1.0 <= score <= 7.0 for score in batch.scores.values())
    if names is None:
        assert batch.importances is None
    else:
        assert set(batch.importances) == set(names)
        assert math.isclose(sum(batch.importances.values()), 1.0)


def _parse_line_by_line(text, expected_ids, importance_names=None):
    """Oracle: parse_response as first written, each block searched for in
    the CRLF-normalized text and read line by line, then every block cut
    from the reasoning by one substitution per kind."""
    blocks = {kind: re.compile(rf"```{kind}[ \t]*\n(.*?)\n?```", re.DOTALL)
              for kind in ("scores", "importances")}

    def read(kind, keys, separator, key_noun, value_noun, low, high):
        match = blocks[kind].search(text.replace("\r\n", "\n"))
        if match is None:
            raise ParseError(f"response has no ```{kind} block", raw_text=text)
        pairs = {}
        for line in match.group(1).splitlines():
            line = line.strip()
            if not line:
                continue
            if separator not in line:
                raise ParseError(f"bad {kind} line (no {separator!r}): {line!r}",
                                 raw_text=text)
            key, _, rendered = line.partition(separator)
            key = key.strip()
            if kind == "importances":
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
            pairs[key] = value
        missing = [k for k in keys if k not in pairs]
        extra = [k for k in pairs if k not in set(keys)]
        if missing or extra:
            raise ParseError(f"{key_noun} mismatch: missing {missing or 'none'}, "
                             f"unexpected {extra or 'none'}", raw_text=text)
        return pairs

    scores = read("scores", expected_ids, ",", "id", "score", 1.0, 7.0)
    importances = None
    if importance_names is not None:
        raw = read("importances", importance_names, "=", "variable", "importance",
                   0.0, math.inf)
        total = sum(raw.values())
        if not 0.98 <= total <= 1.02:
            raise ParseError(f"importance weights sum to {total:.4f}, not close to 1",
                             raw_text=text)
        importances = {name: weight / total for name, weight in raw.items()}
    reasoning = text.replace("\r\n", "\n")
    for pattern in blocks.values():
        reasoning = pattern.sub("", reasoning)
    return scores, importances, reasoning.strip()


@settings(max_examples=300, deadline=None)
@given(text=FUZZED_REPLY, crlf=st.booleans(),
       names=st.sampled_from([None, ("age", "income", "commuting_time")]))
def test_parse_response_reads_as_the_line_by_line_oracle(text, crlf, names):
    if crlf:
        text = text.replace("\n", "\r\n")

    def outcome(parse):
        try:
            return parse(text, ["q1", "q2"], names)
        except ParseError as exc:
            return str(exc), exc.raw_text

    batch = outcome(parse_response)
    if not isinstance(batch, tuple):
        batch = batch.scores, batch.importances, batch.reasoning
    assert batch == outcome(_parse_line_by_line)


REPLY_IDS = st.lists(st.text("abcxyz0123456789-_.", min_size=1, max_size=6),
                    min_size=1, max_size=8, unique=True)
COMMENTARY = st.text(st.characters(blacklist_characters="`",
                                   blacklist_categories=("Cs",)),
                     max_size=40).map(str.strip)


@settings(max_examples=150, deadline=None)
@given(ids=REPLY_IDS, data=st.data(), commentary=COMMENTARY)
def test_write_response_round_trips_through_parse_response(ids, data, commentary):
    names = default_schema().names
    scores = {i: data.draw(st.floats(1.0, 7.0)) for i in ids}
    weights = None
    if data.draw(st.booleans()):
        raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(names),
                                 max_size=len(names)).filter(lambda w: sum(w) > 0.5))
        weights = {name: w / sum(raw) for name, w in zip(names, raw)}
    text = write_response(scores, weights, commentary)
    batch = parse_response(text, ids, None if weights is None else names)
    assert batch.scores == scores
    crlf = parse_response(text.replace("\n", "\r\n"), ids,
                          None if weights is None else names)
    assert (crlf.scores, crlf.importances) == (batch.scores, batch.importances)
    # the parser reads CRLF as LF, in the reasoning too (docs/output_contract.md,
    # "Line endings")
    assert batch.reasoning == commentary.replace("\r\n", "\n")
    if weights is None:
        assert batch.importances is None
    else:
        # six decimals per weight move the sum of 17 by up to 8.5e-6, so a
        # large weight may move by slightly more than 1e-6 on renormalizing
        assert list(batch.importances) == list(names)
        for name, weight in weights.items():
            assert batch.importances[name] == pytest.approx(weight, rel=2e-5, abs=1e-6)


def test_output_contract_examples_parse():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "output_contract.md").read_text("utf-8")
    examples = re.findall(r"^~~~\n(.*?)^~~~$", doc, re.DOTALL | re.MULTILINE)
    assert [e.split("\n")[0] for e in examples] == [SCORES_OPEN, IMPORTANCES_OPEN]
    batch = parse_response("\n".join(examples), ["r0012", "r0047"],
                           ["commuting_time", "income"])
    assert batch.scores == {"r0012": 4.5, "r0047": 3.25}
    assert set(batch.importances) == {"commuting_time", "income"}
    assert math.isclose(sum(batch.importances.values()), 1.0)


def _six_digit_value(var):
    """Values a survey carries: every category code, or a number at six
    significant digits within the variable's bounds."""
    if var.kind == CATEGORICAL:
        return st.sampled_from(var.codes).map(float)
    low = var.minimum if var.minimum is not None else -1e6
    high = var.maximum if var.maximum is not None else 1e6
    return (st.floats(low, high).map(lambda x: float(format(x, ".6g")))
            .filter(lambda x: low <= x <= high
                    and not (var.exclusive_minimum and x <= low)))


@st.composite
def travelers(draw, schema):
    ids = draw(st.lists(st.text("abcxyz0123456789-_.", min_size=1, max_size=6),
                        min_size=1, max_size=8, unique=True))
    return [RespondentRecord(record_id, {var.name: draw(_six_digit_value(var))
                                         for var in schema.predictors},
                             draw(st.floats(1.0, 7.0)))
            for record_id in ids]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_render_read_prompt_round_trip(data):
    schema = default_schema()
    records = data.draw(travelers(schema))
    k = data.draw(st.integers(0, len(records) - 1))
    support, queries = records[:k], records[k:]
    prompt = (render_few_shot(support, queries, schema)
              if k else render_zero_shot(queries, schema))
    examples, read = read_prompt(prompt.user_text, schema)
    assert [(r.record_id, r.values, r.satisfaction) for r in examples] == \
        [(r.record_id, r.values, r.satisfaction) for r in support]
    assert [(r.record_id, r.values) for r in read] == \
        [(r.record_id, r.values) for r in queries]
    assert all(math.isnan(r.satisfaction) for r in read)
    # and on through the rule-mode mock and the response parser
    mock = ScriptedMock(rule="linear", mode="rule", schema=schema)
    ids = [q.record_id for q in queries]
    scores = parse_response(mock.complete(prompt, LlmParams()).content, ids).scores
    assert scores == {q.record_id: linear_rule(q.values) for q in queries}


# ids drawn often from the characters at which the parser splits, strips
# or cuts an "id,score" line
ANY_ID = st.text(st.one_of(st.sampled_from(" ,`\t\n\r\x85\u2028"),
                           st.characters(blacklist_categories=("Cs",))), max_size=6)


@settings(max_examples=200, deadline=None)
@given(record_id=ANY_ID)
def test_every_id_a_record_accepts_is_scored_by_that_id(small_dataset, record_id):
    schema = small_dataset.schema
    try:
        record = RespondentRecord(record_id, small_dataset.records[0].values, 4.0)
    except RowError:
        return
    prompt = render_zero_shot([record], schema)
    assert [q.record_id for q in read_prompt(prompt.user_text, schema)[1]] == [record_id]
    reply = ScriptedMock(rule="linear", mode="rule", schema=schema).complete(
        prompt, LlmParams())
    assert list(parse_response(reply.content, [record_id]).scores) == [record_id]


def _walk_layout(record, schema, with_label):
    """Oracle: a traveler block written line by line, walking _layout."""
    lines = [f"Traveler {record.record_id}"]
    for head, var, tail in _layout(schema, with_label):
        if var is None:
            lines.append(head)
        elif var is schema.label:
            lines.append(f"{head}{float(record.satisfaction)!r}")
        elif var.kind == CATEGORICAL:
            lines.append(head + var.label_for(int(record.values[var.name])))
        else:
            lines.append(f"{head}{float(record.values[var.name]):.6g}{tail}")
    return "\n".join(lines)


# format characters in units, labels and headings
ODD_SCHEMA = VariableSchema(predictors=(
    Variable("share_pct", "travel_characteristics", NUMERIC, unit="%s {0} %%"),
    Variable("mode", "travel_characteristics", CATEGORICAL,
             categories=((1, "50% {x}"), (-2, "%r"), (3, "plain"))),
    Variable("age", "socioeconomics", NUMERIC),
))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), with_label=st.booleans(),
       schema=st.sampled_from([default_schema(), ODD_SCHEMA]))
def test_write_plan_writes_what_a_layout_walk_writes(data, with_label, schema):
    values = {var.name: data.draw(st.sampled_from(var.codes).map(float)
                                  if var.kind == CATEGORICAL else st.floats())
              for var in schema.predictors}
    record = RespondentRecord(data.draw(st.text("ab%{}1", min_size=1, max_size=4)),
                              values, data.draw(st.floats()))
    assert _write_block(record, _write_plan(schema, with_label)) == \
        _walk_layout(record, schema, with_label)


def test_write_plan_refuses_what_a_layout_walk_refuses(small_dataset):
    schema = small_dataset.schema
    record = small_dataset.records[0]
    unknown = dataclasses.replace(record, values={**record.values, "commuting_mode": 12.0})
    # age comes before commuting mode in the layout, so its absence is met first
    lacking = dataclasses.replace(unknown, values={
        name: value for name, value in unknown.values.items() if name != "age"})
    for bad, error in ((unknown, SchemaError), (lacking, KeyError)):
        for with_label in (False, True):
            with pytest.raises(error) as expected:
                _walk_layout(bad, schema, with_label)
            with pytest.raises(error) as got:
                _write_block(bad, _write_plan(schema, with_label))
            assert str(got.value) == str(expected.value)


@st.composite
def render_calls(draw, count):
    """(support indices, query indices, want_importance) per render over
    count records; an empty support is a zero-shot render."""
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(count)))
        k = draw(st.integers(0, count - 1))
        n_queries = draw(st.integers(1, count - k))
        calls.append((order[:k], order[k:k + n_queries], draw(st.booleans())))
    return calls


def _render(records, call, schema, blocks):
    support, queries, want_importance = call
    queries = [records[i] for i in queries]
    if support:
        return render_few_shot([records[i] for i in support], queries, schema,
                               want_importance, blocks=blocks)
    return render_zero_shot(queries, schema, want_importance, blocks=blocks)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_blocks_render_the_same_bytes(data):
    schema = default_schema()
    records = data.draw(travelers(schema))
    calls = data.draw(render_calls(len(records)))
    blocks = Blocks()
    for call in calls:
        # a record may be a query in one render and an example in the next
        assert _render(records, call, schema, blocks).as_bytes() == \
            _render(records, call, schema, None).as_bytes()
    assert len(blocks.texts) <= 2 * len(records)
    assert len(blocks.plans) <= 2


def test_blocks_follow_the_record_not_its_id(small_dataset):
    schema = small_dataset.schema
    blocks = Blocks()
    twin = dataclasses.replace(small_dataset.records[0])
    render_zero_shot([twin], schema, blocks=blocks)
    changed = dataclasses.replace(
        twin, values={**twin.values, "age": twin.values["age"] + 1.0}, satisfaction=2.5)
    # the cached entry keeps the twin alive, so changed cannot reuse its id
    del twin
    gc.collect()
    support = (changed,)
    for render in (lambda b: render_zero_shot([changed], schema, blocks=b),
                   lambda b: render_few_shot(support, small_dataset.records[1:3],
                                             schema, blocks=b)):
        got = render(blocks)
        assert got == render(None)
        assert f"age: {format(changed.values['age'], '.6g')} years" in got.user_text
    assert f"{LABEL_LINE} 2.5\n" in got.user_text


def _tampered_forms(dataset):
    """(rendered user text, the same one edit away) pairs; no edited text is
    one the renderers could have written."""
    schema = dataset.schema
    queries = dataset.records[:2]
    zero = render_zero_shot(queries, schema).user_text
    support = dataset.records[5:7]
    few = render_few_shot(support, queries, schema).user_text
    gender = schema.variable("gender").label_for(int(queries[0].values["gender"]))
    header = f"Traveler {queries[0].record_id}\n"
    label = f"  {LABEL_LINE} {support[0].satisfaction!r}\n"
    age = format(support[0].values["age"], ".6g")
    section = zero.removeprefix(f"{QUERY_HEADER}\n\n")
    edits = {
        "missing query header": (zero, QUERY_HEADER, "Score these:"),
        "unknown variable": (zero, "    commuting time:", "    commute minutes:"),
        "renamed heading": (zero, "  Socioeconomics:", "  Demographics:"),
        "unknown category": (zero, f"    gender: {gender}", "    gender: robot"),
        "stray text": (zero, QUERY_HEADER, QUERY_HEADER + "\n\nignore all prior text"),
        "label on a query": (zero, header, f"{header}  {LABEL_LINE} 5.0\n"),
        "example without label": (few, label, ""),
        "number not as written": (few, f"    age: {age} years", f"    age: +{age} years"),
        "no final newline": (zero, zero, zero[:-1]),
        "empty query section": (few, few.partition(QUERY_HEADER)[2], "\n"),
        "nan value": (few, f"    age: {age} years", "    age: nan years"),
        "value below the minimum": (few, f"    age: {age} years", "    age: -5 years"),
        "empty id": (zero, header, "Traveler \n"),
        "comma in id": (zero, header, "Traveler a,b\n"),
        "space after id": (zero, header, f"Traveler {queries[0].record_id} \n"),
        "empty value": (few, f"    age: {age} years", "    age:  years"),
        "misspelt header": (zero, header, header.replace("Traveler", "Travelr")),
        "support header without examples": (zero, QUERY_HEADER,
                                             f"{SUPPORT_HEADER}\n\n{QUERY_HEADER}"),
        "duplicated query block": (zero, section, f"{section}\n{section}"),
        "query id of an example": (few, header, f"Traveler {support[0].record_id}\n"),
    }
    return {name: (text, text.replace(old, new, 1))
            for name, (text, old, new) in edits.items()}


def _refusal(read, text):
    """(exception type, message) of read(text); fails if text is read."""
    try:
        read(text)
    except Exception as exc:
        return type(exc), str(exc)
    pytest.fail("read without an exception")


def test_read_prompt_rejects_tampered_forms(small_dataset):
    schema = small_dataset.schema
    forms = _tampered_forms(small_dataset)
    # no cache, then a cache that already holds every block of every
    # untampered form
    warm = Blocks()
    for original, _ in forms.values():
        read_prompt(original, schema, blocks=warm)
    for blocks in (None, warm):
        mock = ScriptedMock(rule="linear", mode="nn", schema=schema)
        if blocks is not None:
            mock.blocks = blocks
        for name, (original, tampered) in forms.items():
            assert tampered != original, name
            fresh = _refusal(lambda text: read_prompt(text, schema), tampered)
            assert issubclass(fresh[0], PromptError), name
            got = _refusal(lambda text: read_prompt(text, schema, blocks=blocks),
                           tampered)
            assert got == fresh, name
            scored = _refusal(lambda text: mock.complete(Prompt("", text), LlmParams()),
                              tampered)
            assert scored == (MockError, f"unreadable prompt: {fresh[1]}"), name


def _fields(records):
    # repr tells NaN and -0.0 apart where == does not
    return [(r.record_id, repr(sorted(r.values.items())), repr(r.satisfaction))
            for r in records]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_readings_read_what_a_fresh_read_reads(data):
    schema = default_schema()
    records = data.draw(travelers(schema))
    calls = data.draw(render_calls(len(records)))
    blocks = Blocks()
    for _ in range(2):
        for call in calls:
            text = _render(records, call, schema, None).user_text
            got = read_prompt(text, schema, blocks=blocks)
            fresh = read_prompt(text, schema)
            assert [_fields(side) for side in got] == [_fields(side) for side in fresh]
    # one entry per distinct block, labeled or not
    assert len(blocks.records) <= 2 * len(records)
    assert len(blocks.plans) <= 2


def test_threads_sharing_readings_read_what_a_fresh_read_reads(small_dataset):
    schema = small_dataset.schema
    records = small_dataset.records
    texts = [render_few_shot(records[i:i + 6], records[40 + i % 5:48 + i % 5], schema).user_text
             for i in range(0, 30, 3)]
    texts += [render_zero_shot(records[40 + i:44 + i], schema).user_text for i in range(6)]
    expected = {text: [_fields(side) for side in read_prompt(text, schema)] for text in texts}
    blocks = Blocks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda text: read_prompt(text, schema, blocks=blocks),
                                texts * 8, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [[_fields(side) for side in sides] for sides in got] == \
        [expected[text] for text in texts * 8]
    # every entry, whichever thread stored it last, is its block's record
    for (block, with_label), record in blocks.records.items():
        plan = _write_plan(schema, with_label)
        assert _fields([record]) == _fields([_read_block(block, plan, schema.label)])


def test_a_refused_block_is_refused_again(small_dataset):
    schema = small_dataset.schema
    forms = _tampered_forms(small_dataset)
    blocks = Blocks()
    for name, block_refused in (("unknown category", True), ("value below the minimum", True),
                                ("comma in id", True), ("empty value", True),
                                ("number not as written", False)):
        original, tampered = forms[name]
        expected = _refusal(lambda text: read_prompt(text, schema), tampered)
        for _ in range(2):
            assert _refusal(lambda text: read_prompt(text, schema, blocks=blocks),
                            tampered) == expected, name
        # the one block the edit changed: a block _read_block refuses has no
        # entry; one it reads is cached, and the round trip refuses the prompt
        (edited,) = (set(tampered.removesuffix("\n").split("\n\n"))
                     - set(original.removesuffix("\n").split("\n\n")))
        cached = {block for block, _ in blocks.records}
        assert (edited not in cached) is block_refused, name
        # the untampered prompt still reads as a fresh read does
        assert [_fields(side) for side in read_prompt(original, schema, blocks=blocks)] \
            == [_fields(side) for side in read_prompt(original, schema)]


def test_one_blocks_writes_and_reads_by_the_same_two_plans(small_dataset, monkeypatch):
    schema = small_dataset.schema
    records = small_dataset.records
    forms = _tampered_forms(small_dataset)
    blocks = Blocks()
    texts = [render_few_shot(records[i:i + 4], records[20 + i:23 + i], schema,
                             blocks=blocks).user_text for i in range(0, 12, 4)]
    texts.append(render_zero_shot(records[30:34], schema, blocks=blocks).user_text)
    expected = [[_fields(side) for side in read_prompt(text, schema)] for text in texts]
    refusals = {name: _refusal(lambda text: read_prompt(text, schema), tampered)
                for name, (_, tampered) in forms.items()}
    plans = dict(blocks.plans)
    assert sorted(plans) == [False, True]
    compiled = []
    monkeypatch.setattr(prompting, "_write_plan",
                        lambda *args: compiled.append(args) or _write_plan(*args))
    for _ in range(2):
        assert [[_fields(side) for side in read_prompt(text, schema, blocks=blocks)]
                for text in texts] == expected
        for name, (_, tampered) in forms.items():
            assert _refusal(lambda text: read_prompt(text, schema, blocks=blocks),
                            tampered) == refusals[name], name
    # every read and round trip went through the two plans the writes compiled
    assert compiled == []
    assert blocks.plans.keys() == plans.keys()
    assert all(blocks.plans[kind] is plans[kind] for kind in plans)


def test_round_trip_refusal_names_the_line_that_differs(small_dataset):
    _, tampered = _tampered_forms(small_dataset)["renamed heading"]
    with pytest.raises(PromptError,
                       match="got '  Demographics:', expected '  Socioeconomics:'"):
        read_prompt(tampered, small_dataset.schema)


@pytest.mark.parametrize("form, reason", [
    ("value below the minimum", "line '    age: -5 years': age: -5.0 must be > 0.0"),
    ("nan value", "age: not a finite number: 'nan'"),
    ("no final newline", "got None, expected ''"),
    ("duplicated query block", "duplicate query record ids"),
    ("comma in id", "traveler block 'Traveler a,b': record_id 'a,b' contains a comma"),
    ("empty id", "record_id '' is empty"),
    ("empty value", "line '    age:  years': empty"),
])
def test_refusal_gives_its_reason(small_dataset, form, reason):
    _, tampered = _tampered_forms(small_dataset)[form]
    with pytest.raises(PromptError, match=re.escape(reason)):
        read_prompt(tampered, small_dataset.schema)
