"""Hand-written replies in off-contract forms (tests/data/replies/), each read
exactly or refused with its reason.

A corpus file opens with "key: value" header lines, up to a line "----";
every byte after that line is the reply, line endings included:

- form: what the reply does differently from the contract;
- ids: the query ids asked for; names: the predictors whose weights were
  asked for, when they were;
- scores and importances ("key=value" pairs): what the reply reads as, or
  reason: the ParseError message that refuses it.
"""

from pathlib import Path

import pytest

from travelsat.errors import ParseError
from travelsat.prompting import parse_response, write_response

CORPUS = Path(__file__).parent / "data" / "replies"


def _case(path):
    head, _, reply = path.read_bytes().decode("utf-8").partition("\n----\n")
    header = dict(line.split(": ", 1) for line in head.split("\n"))
    return header, reply


def _pairs(field):
    return {key: float(value) for key, _, value in
            (pair.partition("=") for pair in field.split())}


def _signed(values):
    # repr tells -0.0 from 0.0, where == does not
    return None if values is None else {key: repr(value) for key, value in values.items()}


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.txt")), ids=lambda path: path.stem)
def test_reply_reads_as_its_file_states(path):
    header, reply = _case(path)
    ids = header["ids"].split()
    names = header["names"].split() if "names" in header else None
    if "reason" in header:
        with pytest.raises(ParseError) as excinfo:
            parse_response(reply, ids, names)
        assert str(excinfo.value) == header["reason"]
        assert excinfo.value.raw_text == reply
        return
    expected = (_pairs(header["scores"]),
                _pairs(header["importances"]) if names is not None else None)
    batch = parse_response(reply, ids, names)
    assert (_signed(batch.scores), _signed(batch.importances)) == tuple(map(_signed, expected))
    # an accepted reply reads as its canonical form
    canonical = parse_response(write_response(batch.scores, batch.importances, ""), ids, names)
    assert (_signed(canonical.scores), _signed(canonical.importances)) == \
        tuple(map(_signed, expected))


def test_corpus_holds_every_form():
    forms = {path.stem for path in CORPUS.glob("*.txt")}
    assert forms == {
        "contract", "prose-before-block", "space-before-kind", "capitalized-kind",
        "quoted-ids", "bold-ids", "score-out-of-seven", "tab-separated", "header-row",
        "partial-block-first", "crlf", "negative-zero-weight"}
