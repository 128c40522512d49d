import dataclasses
import gc
import math
import re
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
)
from travelsat.mock import ScriptedMock
from travelsat.prompting import (
    DEFAULT_BATCH_SIZE,
    IMPORTANCES_OPEN,
    LABEL_LINE,
    Prompt,
    QUERY_HEADER,
    SCORES_OPEN,
    SUPPORT_HEADER,
    _load_template,
    batched,
    parse_response,
    read_prompt,
    render_few_shot,
    render_zero_shot,
    write_response,
)
from travelsat.rules import linear_rule
from travelsat.schema import CATEGORICAL, default_schema
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
    for blocks in (None, {}):
        with pytest.raises(PromptError):
            render_zero_shot([queries[0], queries[0]], schema, blocks=blocks)


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
    for blocks in (None, {}):
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
    assert batch.reasoning == commentary
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
    blocks: dict = {}
    for call in calls:
        # a record may be a query in one render and an example in the next
        assert _render(records, call, schema, blocks).as_bytes() == \
            _render(records, call, schema, None).as_bytes()
    assert len(blocks) <= 2 * len(records)


def test_blocks_follow_the_record_not_its_id(small_dataset):
    schema = small_dataset.schema
    blocks: dict = {}
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


def test_read_prompt_rejects_tampered_forms(small_dataset):
    mock = ScriptedMock(rule="linear", mode="nn", schema=small_dataset.schema)
    for name, (original, tampered) in _tampered_forms(small_dataset).items():
        assert tampered != original, name
        try:
            read_prompt(tampered, small_dataset.schema)
        except PromptError:
            pass
        else:
            pytest.fail(f"{name}: read without a PromptError")
        try:
            mock.complete(Prompt(system_text="", user_text=tampered), LlmParams())
        except MockError:
            continue
        pytest.fail(f"{name}: scored by the mock")


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
