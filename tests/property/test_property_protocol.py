"""Property: the observe decoder's whole-list int64 validation accepts
and refuses exactly what the per-element validator it replaced did,
except for the int64 range check that arrays need, and an accepted
observe carries exactly the values that were sent (hypothesis)."""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import protocol

INT64_MAX = 2 ** 63 - 1


def per_element_int_list(values, minimum=0):
    """The per-element validator the decoder replaced, verbatim in
    behaviour: a list of ints (bools excluded), each >= ``minimum``."""
    if not isinstance(values, list):
        raise ProtocolError("not a list")
    out = []
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError("not an int")
        if minimum is not None and value < minimum:
            raise ProtocolError("negative")
        out.append(value)
    return out


def per_element_accepts(payload):
    """The replaced observe validation of ``pcs`` and ``counts``."""
    try:
        pcs = per_element_int_list(payload.get("pcs"))
        counts = per_element_int_list(payload.get("counts"))
    except ProtocolError:
        return None
    if len(pcs) != len(counts):
        return None
    return pcs, counts


#: Column values the per-element validator accepts, weighted toward
#: the 0 and 1 a bool converts to, and the int64 edge.
good = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=INT64_MAX - 2, max_value=INT64_MAX),
)
#: Values it refuses, plus the integers past int64 that only the new
#: decoder refuses.
bad = st.one_of(
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=-INT64_MAX - 3, max_value=-INT64_MAX),
    st.integers(min_value=INT64_MAX + 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(min_value=0, max_value=9), max_size=2),
)


@st.composite
def column_pairs(draw):
    """Equal-length integer ``pcs``/``counts`` columns with a few bad
    values dropped in, or a length mismatch, or a non-list column."""
    size = draw(st.integers(min_value=0, max_value=8))
    pair = [draw(st.lists(good, min_size=size, max_size=size))
            for _ in range(2)]
    for column in pair:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            if column:
                index = draw(st.integers(0, len(column) - 1))
                column[index] = draw(bad)
    shape = draw(st.sampled_from(["parallel"] * 3 + ["longer", "scalar"]))
    if shape == "longer":
        pair[draw(st.integers(0, 1))].append(draw(good))
    elif shape == "scalar":
        pair[draw(st.integers(0, 1))] = draw(st.one_of(
            good, bad, st.dictionaries(st.text(max_size=2), good,
                                       max_size=2)))
    return pair


@settings(max_examples=600, deadline=None)
@given(pair=column_pairs(),
       omit=st.sampled_from([None, None, None, "pcs", "counts"]))
def test_decoder_matches_the_per_element_validator(pair, omit):
    payload = {"op": "observe", "id": 1, "session": "s",
               "pcs": pair[0], "counts": pair[1]}
    if omit is not None:
        del payload[omit]
    line = json.dumps(payload).encode() + b"\n"
    payload = json.loads(line)  # exactly what the server sees

    expected = per_element_accepts(payload)
    out_of_range = expected is not None and any(
        value > INT64_MAX for value in expected[0] + expected[1]
    )
    event("refused" if expected is None else
          "out of int64" if out_of_range else "accepted")
    if expected is None or out_of_range:
        with pytest.raises(ProtocolError):
            protocol.parse_request(line)
        return
    request = protocol.parse_request(line)
    assert request.pcs.dtype == request.counts.dtype == "int64"
    assert request.pcs.tolist() == expected[0]
    assert request.counts.tolist() == expected[1]
