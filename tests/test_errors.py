import inspect
import pickle

import pytest

from travelsat import errors

SUBCLASSES = sorted((cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                     if issubclass(cls, errors.TravelSatError)),
                    key=lambda cls: cls.__name__)

# constructors that take more than a message
SPECIAL = {
    errors.ParseError: lambda: errors.ParseError("no scores block",
                                                 raw_text="I think 4.\n"),
}


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    error = SPECIAL.get(cls, lambda: cls("something went wrong"))()
    restored = pickle.loads(pickle.dumps(error))
    assert type(restored) is cls
    assert str(restored) == str(error)
    assert restored.args == error.args
    assert vars(restored) == vars(error)
    assert getattr(restored, "raw_text", None) == getattr(error, "raw_text", None)
