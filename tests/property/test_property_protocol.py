"""Properties of the observe decoder (hypothesis).

- Its whole-list int64 validation accepts and refuses exactly what the
  per-element validator it replaced did, except for the int64 range
  check that arrays need, and an accepted observe carries exactly the
  values that were sent, in the client's compact layout and in
  ``json.dumps``'s default one.
- ``parse_request``, which decodes canonical observe lines without
  ``json.loads``, and the ``json.loads`` reference make the same
  request, or the same refusal, of every near-canonical line.
"""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import protocol

#: parse_request hands canonical observe columns to np.fromstring: a
#: deprecation that numpy raises on a call from the protocol module
#: fails these tests, on every Python that CI runs.
pytestmark = pytest.mark.filterwarnings(
    "error::DeprecationWarning:repro.service.protocol"
)

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
       omit=st.sampled_from([None, None, None, "pcs", "counts"]),
       compact=st.booleans())
def test_decoder_matches_the_per_element_validator(pair, omit, compact):
    payload = {"op": "observe", "id": 1, "session": "s",
               "pcs": pair[0], "counts": pair[1], "cpi": 1.0}
    if omit is not None:
        del payload[omit]
    # The compact form is the client's canonical layout, which
    # parse_request decodes without json.loads.
    separators = (",", ":") if compact else None
    line = json.dumps(payload, separators=separators).encode() + b"\n"
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


#: What the canonical decoder takes: values below 10**18, ids of at
#: most 19 digits, plain session names, and unsigned CPIs.
canonical_values = st.one_of(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=10 ** 18 - 1),
).map(str)
canonical_ids = st.integers(min_value=-10 ** 19 + 1,
                            max_value=10 ** 19 - 1).map(str)
canonical_sessions = st.sampled_from(["s", "c0s0", "w.1:a-b_c", "x" * 200])
canonical_cpis = st.sampled_from(["1", "1.0", "1.5", "2.5e-3", "1E2"])

#: Near misses, each valid or invalid JSON: values at the int64 and
#: 10**18 edges and 20 digits long, the zero forms JSON allows and
#: refuses, and values that are no unsigned integer; empty, escaped,
#: non-ASCII and over-long session names; ids past 19 digits or not
#: integers; CPIs the validator refuses or a float cannot hold.
edge_values = st.one_of(
    st.integers(min_value=10 ** 19, max_value=10 ** 20 - 1).map(str),
    st.sampled_from([
        str(INT64_MAX), str(2 ** 63), str(10 ** 18), "0", "00", "01",
        "-1", "1.0", "true",
    ]),
)
edge_ids = st.one_of(
    st.integers(min_value=10 ** 19, max_value=10 ** 25).map(str),
    st.sampled_from(["-0", "007", "1.0", "true", '"1"']),
)
edge_sessions = st.sampled_from(
    ["", "a\"b", "a\\b", "tab\there", "é", "☃", "x" * 201]
)
edge_cpis = st.sampled_from([
    "0", "-1", "1e400", "NaN", "true", "1e-400", "0.0", "-0.0",
    "Infinity", "12345678901234567", "1" + "0" * 309,
    "1.7976931348623157e308", "1.8e308", None,
])

#: The parts of a line the generator may take off the canonical path.
FLAWS = ("pcs", "counts", "lengths", "id", "session", "cpi", "layout")


@st.composite
def column_text(draw, size, flawed):
    """A column's text between its brackets, ``size`` values long;
    a flawed one mixes in edge values and may carry a trailing,
    leading or doubled comma or a space."""
    values = st.one_of(canonical_values, edge_values) if flawed \
        else canonical_values
    text = ",".join(draw(st.lists(values, min_size=size, max_size=size)))
    if flawed:
        mutation = draw(st.sampled_from(
            [None, "trailing", "leading", "double", "space"]
        ))
        if mutation == "trailing":
            text += ","
        elif mutation == "leading":
            text = "," + text
        elif mutation == "double":
            text = text.replace(",", ",,", 1) if "," in text \
                else text + ",,1"
        elif mutation == "space":
            text = text.replace(",", ", ", 1) if "," in text \
                else " " + text
    return text


@st.composite
def near_canonical_lines(draw):
    """Observe lines in the canonical layout with up to two parts
    taken off it: a column, the columns' lengths, the id, the session
    name, the CPI, or the layout itself (key order, separators, line
    ending)."""
    flawed = draw(st.sets(st.sampled_from(FLAWS), max_size=2))
    size = draw(st.integers(min_value=0, max_value=5))
    pcs = draw(column_text(size, "pcs" in flawed))
    if "lengths" in flawed:
        size = max(0, size + draw(st.sampled_from([1, -1])))
    counts = draw(column_text(size, "counts" in flawed))
    if "session" in flawed:
        session = json.dumps(draw(edge_sessions),
                             ensure_ascii=draw(st.booleans()))
    else:
        session = json.dumps(draw(canonical_sessions))
    fields = [
        ("op", '"observe"'),
        ("id", draw(edge_ids if "id" in flawed else canonical_ids)),
        ("session", session),
        ("pcs", f"[{pcs}]"),
        ("counts", f"[{counts}]"),
    ]
    cpi = draw(edge_cpis if "cpi" in flawed else canonical_cpis)
    if cpi is not None:
        fields.append(("cpi", cpi))
    item, key, ending = ",", ":", "\n"
    if "layout" in flawed:
        order = draw(st.sampled_from(["canonical", "swapped", "cpi"]))
        if order == "swapped":
            fields[3], fields[4] = fields[4], fields[3]
        elif order == "cpi":
            fields.insert(0, fields.pop())
        item, key = draw(st.sampled_from(
            [(",", ":"), (", ", ": "), (",", ": ")]
        ))
        ending = draw(st.sampled_from(["\n", "", "\r\n", " \n"]))
    body = item.join(f'"{name}"{key}{value}' for name, value in fields)
    return ("{" + body + "}" + ending).encode("utf-8")


def decoded(parse, line):
    """What ``parse`` makes of ``line``: the request, with each
    column's dtype and values, or the refusal's message."""
    try:
        request = parse(line)
    except ProtocolError as error:
        return "refused", str(error)
    return (
        type(request), request.id, request.session, request.cpi,
        request.pcs.dtype, request.pcs.tolist(),
        request.counts.dtype, request.counts.tolist(),
    )


@settings(max_examples=1000, deadline=None)
@given(line=near_canonical_lines())
def test_parse_request_decodes_as_the_json_reference_does(line):
    event("canonical decoder" if protocol._canonical_observe(line)
          else "json.loads")
    assert decoded(protocol.parse_request, line) == decoded(
        protocol._parse_json_request, line
    )
