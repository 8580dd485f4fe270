"""The annotation-driven loader of config and geometry JSON (errors.load)."""

import dataclasses
import json
import types
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seslab import CameraIntrinsics, ConfigError, CorpusSpec, EgoMotion, EquivConfig, LayerSpec, PatchPlane, StackSpec
from seslab.basis import _BasisKeys
from seslab.cli import BasisConfig, SweepConfig
from seslab.errors import dump, load
from seslab.geometry import _MotionKeys
from seslab.sesconv import KINDS, NONLINEARITIES
from seslab.synth import KINDS as IMAGE_KINDS

BIG = 10**400  # parses from JSON as an int too large for a float


class TestRules:
    def test_nested_objects_load_recursively(self):
        config = load(EquivConfig, {"stack": {"layers": [{"out_channels": 3, "k": 5}], "max_order": 1}, "blocks": [1]})
        assert config.stack.layers == (LayerSpec(3, 5),)
        assert isinstance(config.stack.layers, tuple) and isinstance(config.blocks, tuple)

    def test_error_names_the_field_path(self):
        payload = {"stack": {"layers": [{"out_channels": 3}, {"out_channels": 3, "k": 5.0}]}}
        with pytest.raises(ConfigError, match=r"^stack\.layers\[1\]\.k must be an integer, got 5\.0$"):
            load(EquivConfig, payload)

    def test_reals_come_out_as_floats(self):
        plane = load(PatchPlane, {"m": 0, "n": 0, "o": 1, "p": -30})
        assert [type(v) for v in (plane.m, plane.n, plane.o, plane.p)] == [float] * 4
        assert load(EquivConfig, {"crop_margin": 0}).crop_margin == 0.0

    @pytest.mark.parametrize("value", [BIG, -BIG, float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_non_finite_reals_rejected(self, value):
        with pytest.raises(ConfigError, match="plane.p must be a finite number"):
            load(PatchPlane, {"m": 0.0, "n": 0.0, "o": 1.0, "p": value}, "plane")

    @pytest.mark.parametrize(
        ("data", "message"),
        [
            ([1, 2], "intrinsics must be a JSON object"),
            ({"f": 1.0, "u0": 0.0, "v0": 0.0, "width": 2}, "intrinsics is missing height"),
            ({"f": 1.0, "u0": 0.0, "v0": 0.0, "width": 2, "height": 2, "fx": 1.0}, r"unknown keys in intrinsics: \['fx'\]"),
            ({"f": 1.0, "u0": 0.0, "v0": 0.0, "width": True, "height": 2}, "intrinsics.width must be an integer"),
            ({"f": "1", "u0": 0.0, "v0": 0.0, "width": 2, "height": 2}, "intrinsics.f must be a number"),
        ],
    )
    def test_object_keys_and_types(self, data, message):
        with pytest.raises(ConfigError, match=message):
            load(CameraIntrinsics, data, "intrinsics")

    def test_optional_and_string_fields(self):
        assert load(SweepConfig, {"width": None}).width is None
        with pytest.raises(ConfigError, match="corpus.image_dir must be a string, got 5"):
            load(EquivConfig, {"corpus": {"image_dir": 5}})
        with pytest.raises(ConfigError, match="heights must be a list"):
            load(SweepConfig, {"heights": 96})

    def test_python_construction_checks_the_same_annotations(self):
        with pytest.raises(ConfigError, match="StackSpec.alpha must be a number, got True"):
            StackSpec(alpha=True)
        assert EquivConfig(scale_factors=[1, 0.5], blocks=[1]).scale_factors == (1.0, 0.5)

    def test_motion_keys(self):
        motion = EgoMotion.from_dict({"t": [0, 0, -3]})
        assert motion.translation.tolist() == [0.0, 0.0, -3.0]
        assert motion.rotation.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ConfigError, match=r"motion\.R\[0\]\[1\] must be a finite number"):
            EgoMotion.from_dict({"t": [0, 0, -3], "R": [[1, float("nan"), 0], [0, 1, 0], [0, 0, 1]]})
        with pytest.raises(ConfigError, match=r"unknown keys in motion: \['rotation'\]"):
            EgoMotion.from_dict({"t": [0, 0, -3], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})


numbers = (
    st.integers(min_value=-4, max_value=40)
    | st.integers(min_value=-BIG, max_value=BIG)
    | st.sampled_from([BIG, -BIG])
    | st.floats(min_value=-2.0, max_value=2.0)
    | st.floats(allow_nan=True, allow_infinity=True)
)
words = st.text(max_size=4) | st.sampled_from(["ses", "vanilla", "relu", "none", "checkerboard"])
scalars = st.none() | st.booleans() | numbers | words
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def _values(tp):
    """JSON values for the annotation ``tp``: mostly of its shape, sometimes anything."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        shaped = st.none() | _values(args[0])
    elif origin is tuple:
        shaped = st.lists(_values(args[0]), max_size=4)
    elif dataclasses.is_dataclass(tp):
        shaped = objects(tp)
    else:
        shaped = numbers if tp in (int, float) else words
    return st.one_of(shaped, shaped, shaped, json_values)


def objects(cls):
    """JSON objects holding the fields of ``cls`` that have no default, or any
    subset of its fields, plus junk keys."""
    hints = typing.get_type_hints(cls)
    values = {f.name: st.deferred(lambda f=f: _values(hints[f.name])) for f in dataclasses.fields(cls)}
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    fields = st.fixed_dictionaries({}, optional=values) | st.fixed_dictionaries(
        {name: values[name] for name in required},
        optional={name: v for name, v in values.items() if name not in required},
    )
    junk = st.dictionaries(st.text(max_size=3), json_values, max_size=2)
    return st.tuples(fields, junk).map(lambda pair: {**pair[1], **pair[0]})


# Target -> (the dataclass whose fields shape the generated objects, loader).
TARGETS = {
    "EquivConfig": (EquivConfig, lambda data: load(EquivConfig, data)),
    "EquivConfig.from_dict": (EquivConfig, EquivConfig.from_dict),
    "BasisConfig": (BasisConfig, lambda data: load(BasisConfig, data)),
    "SweepConfig": (SweepConfig, lambda data: load(SweepConfig, data)),
    "PatchPlane": (PatchPlane, lambda data: load(PatchPlane, data, "plane")),
    "CameraIntrinsics": (CameraIntrinsics, lambda data: load(CameraIntrinsics, data, "intrinsics")),
    "EgoMotion.from_dict": (_MotionKeys, EgoMotion.from_dict),
}


class _Drawn:
    """Stands in for ``st.data()`` in an explicit example: every draw gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
# A corpus extent past the float range used to raise OverflowError from
# EquivConfig's crop window.
@example(data=_Drawn({"corpus": {"height": BIG}}))
def test_any_json_loads_or_is_a_value_error(target, data):
    # A ValueError subclass is what cli.main reports as an invalid
    # configuration with exit 2; anything else would be a traceback.
    shape, loader = TARGETS[target]
    value = json.loads(json.dumps(data.draw(objects(shape) | json_values)))  # as json.load hands it over
    try:
        loader(value)
    except ValueError:
        pass


# Valid instances of every dataclass that load reads.
reals = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
texts = st.text(max_size=6)
layers = st.builds(LayerSpec, st.integers(1, 64), st.sampled_from([5, 7, 11]), st.sampled_from(NONLINEARITIES))
stacks = st.builds(
    StackSpec,
    st.sampled_from(KINDS),
    st.lists(layers, min_size=1, max_size=4),
    st.floats(0.05, 1.0),
    st.integers(1, 3),
    st.integers(0),
    positive,
    st.integers(0, 3),
)
# A synthetic corpus needs a known kind and extents >= 8; an image_dir corpus
# does not read them.
image_kinds = st.sampled_from(IMAGE_KINDS)
corpora = st.builds(CorpusSpec, image_kinds, st.integers(1, 99), st.integers(8), st.integers(8), st.integers(0)) | st.builds(
    CorpusSpec, texts, st.integers(1, 99), st.integers(), st.integers(), st.integers(0), texts
)


def _sweep_fits(fields) -> bool:
    """Whether SweepConfig takes ``fields``; of the fields drawn below, only a
    corpus and roundtrip too large for memory are refused."""
    try:
        SweepConfig(*fields)
    except ConfigError:
        return False
    return True


INSTANCES = {
    "LayerSpec": layers,
    "StackSpec": stacks,
    "CorpusSpec": corpora,
    # EquivConfig runs both kinds and takes only the default kind "ses". It
    # takes any corpus and margin: run_experiment plans them against the images.
    "EquivConfig": st.tuples(
        stacks.map(lambda stack: dataclasses.replace(stack, kind="ses")), corpora, st.floats(0.0, 0.5, exclude_max=True)
    )
    .flatmap(
        lambda fields: st.builds(
            EquivConfig,
            st.just(fields[0]),
            st.just(fields[1]),
            st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=5, unique=True),
            st.lists(st.integers(1, len(fields[0].layers)), min_size=1, max_size=4, unique=True),
            st.just(fields[2]),
        )
    ),
    "BasisConfig": st.builds(BasisConfig, reals, st.integers(1, 3), st.integers(), st.integers(), positive),
    # Every (height, up-factor) cell needs extents of at least the SSIM window,
    # an up-factor >= 1, and a corpus and roundtrip that fit in memory.
    "SweepConfig": st.tuples(
        st.lists(st.integers(11, 256), max_size=4, unique=True),
        st.lists(st.floats(1.0, 8.0), max_size=4, unique=True),
        st.integers(min_value=1),
        image_kinds,
        st.integers(0),
        st.none() | st.integers(11, 256),
    )
    .filter(_sweep_fits)
    .map(lambda fields: SweepConfig(*fields)),
    "PatchPlane": st.builds(
        PatchPlane, reals, reals, positive, st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
    ),
    "CameraIntrinsics": st.tuples(st.integers(1, 5000), st.integers(1, 5000)).flatmap(
        lambda size: st.builds(
            CameraIntrinsics, positive, st.floats(0, size[0]), st.floats(0, size[1]), st.just(size[0]), st.just(size[1])
        )
    ),
    "_MotionKeys": st.builds(
        _MotionKeys,
        st.lists(reals, max_size=4).map(tuple),
        st.lists(st.lists(reals, max_size=4).map(tuple), max_size=4).map(tuple),
    ),
    "_BasisKeys": st.builds(
        _BasisKeys,
        texts,
        st.lists(reals, max_size=4).map(tuple),
        st.lists(st.lists(st.integers(), max_size=3).map(tuple), max_size=4).map(tuple),
        st.integers(),
        st.none() | reals,
    ),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_load_inverts_dump(name, data):
    value = data.draw(INSTANCES[name])
    text = json.dumps(dump(value))  # only JSON types, or this raises
    assert load(type(value), json.loads(text)) == value
