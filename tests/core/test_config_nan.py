"""NaN is refused by every float field of every config dataclass, and
anything but a real ``int`` by the int fields the run sizes things with.

A NaN fails every comparison, so a range check written ``if v < 0:
raise`` lets it through, and it fails later — at the first ``Timeout``
or ``range()`` mid-run.  Every float check is written negated (``not v
>= 0``) instead; the first table walks every float field and proves it.
A count written ``v < 1`` also lets a float or a bool through (a
``cl_threshold`` of 2.7 ran as 2); the second table feeds each int
field a NaN, a float and a bool.
"""

import dataclasses
import math
import typing

import pytest

from repro.core import config
from repro.rpc import RetryPolicy

NAN = math.nan
CLASSES = [getattr(config, name) for name in config.__all__] + [RetryPolicy]


def float_fields():
    for cls in CLASSES:
        if not dataclasses.is_dataclass(cls):
            continue
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if hints[field.name] in (float, typing.Optional[float]):
                yield pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")


FLOAT_FIELDS = list(float_fields())


def test_the_table_walks_every_config_class():
    walked = {param.values[0].__name__ for param in FLOAT_FIELDS}
    assert walked == {
        "ArrivalConfig", "ClusterConfig", "FaultConfig", "RetryPolicy",
        "RpcConfig",
    }
    assert len(FLOAT_FIELDS) == 19


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
def test_nan_is_refused(cls, name):
    with pytest.raises(ValueError, match=name.split("_")[0]):
        cls(**{name: NAN})


def test_infinite_arrival_rate_is_refused():
    """An inf rate draws zero-length interarrival gaps: the run would
    loop at one simulated instant and never reach its horizon."""
    with pytest.raises(ValueError, match="rate must be finite"):
        config.ArrivalConfig(enabled=True, rate=math.inf)


@pytest.mark.parametrize("cls, name", [
    (RetryPolicy, "max_retries"),
])
def test_retry_count_must_be_an_int(cls, name):
    with pytest.raises(ValueError, match="int"):
        cls(**{name: 1.5})
    assert cls(**{name: 2}).__getattribute__(name) == 2


#: (class, field) of every int field that sizes something in the run
INT_FIELDS = [
    (config.ClusterConfig, "num_nodes"),
    (config.ClusterConfig, "cl_threshold"),
    (config.ArrivalConfig, "queue_capacity"),
    (config.PayloadConfig, "size"),
]


@pytest.mark.parametrize("bad", [NAN, 2.5, True], ids=["nan", "float", "bool"])
@pytest.mark.parametrize(
    "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
)
def test_int_field_refuses_non_int(cls, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        cls(**{name: bad})
