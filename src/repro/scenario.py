"""Declarative scenario specs: every experiment is a point in one space.

The paper's experiments all live in one space -- attack x defense x timing
model x channel x secret -- and this module gives that space a declarative,
content-hashable surface:

* :class:`ScenarioSpec` -- a frozen description of **one** experiment point:
  a ``kind`` (``analyze`` / ``evaluate`` / ``simulate`` / ``matrix`` /
  ``simulate_sweep`` / ... see :data:`KINDS`) plus keyword parameters.
  Parameters are canonicalized (lists become tuples, ``None`` values are
  dropped, ordering is irrelevant) and the spec's :meth:`content_hash` is a
  SHA-256 over a *stable* rendering -- enums render by name, programs by
  their own content hash, frozen dataclasses field by field, callables by
  qualified name -- so the same spec hashes identically across processes
  and interpreter runs.  That hash is the key of the spec-level
  :class:`~repro.store.ArtifactStore` cache.
* :class:`ScenarioGrid` -- a cartesian (or explicit) *set* of points: shared
  ``base`` parameters plus named ``axes``, expanded in deterministic order
  by :meth:`ScenarioGrid.specs`.  :meth:`Engine.run_grid
  <repro.engine.Engine.run_grid>` fans a grid out over the execution plane;
  adding a new sweep axis is one ``axes`` entry, not one Engine method.

Specs built in Python may carry rich objects (a :class:`~repro.isa.program.
Program`, a customized :class:`~repro.defenses.base.Defense`, a
:class:`~repro.uarch.timing.scheduler.TimingModel`); specs loaded from JSON
(:func:`load`, ``repro run --spec``) carry plain names and field dicts, and
the ``decode_*`` helpers below turn either form into the library objects the
executors need.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import fields as dataclass_fields, is_dataclass
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# The kind registry
# ---------------------------------------------------------------------------
class KindInfo:
    """Allowed/required parameters and arity of one spec kind."""

    __slots__ = ("name", "params", "required", "grid", "description")

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        required: Sequence[str] = (),
        grid: bool = False,
        description: str = "",
    ) -> None:
        self.name = name
        self.params = frozenset(params)
        self.required = frozenset(required)
        self.grid = grid
        self.description = description


#: Every spec kind the engine can execute.  ``grid=True`` kinds are
#: composite (they sweep an internal grid and return one aggregate
#: envelope); the rest are single experiment points.
KINDS: Dict[str, KindInfo] = {
    kind.name: kind
    for kind in (
        KindInfo(
            "analyze",
            ("program", "name", "protected_symbols", "points"),
            required=("program",),
            description="Figure 9 attack-graph analysis of one program",
        ),
        KindInfo(
            "evaluate",
            ("defense", "attack"),
            required=("defense", "attack"),
            description="one defense applied to one attack variant",
        ),
        KindInfo(
            "exploit",
            ("exploit", "config", "secret", "defenses"),
            required=("exploit",),
            description="one end-to-end exploit on the functional simulator",
        ),
        KindInfo(
            "simulate",
            ("attack", "defenses", "config", "secret", "model"),
            required=("attack",),
            description="one attack on the cycle-accurate timing core",
        ),
        KindInfo(
            "patch",
            ("program", "name", "protected_symbols"),
            required=("program",),
            description="analyze + fence-insertion + re-analyze",
        ),
        KindInfo(
            "validate_timing",
            ("attacks", "model"),
            grid=True,
            description="Theorem-1 cross-check over the attack registry",
        ),
        KindInfo(
            "matrix",
            ("defenses", "attacks"),
            grid=True,
            description="the defense x attack evaluation matrix",
        ),
        KindInfo(
            "synthesize",
            ("sources", "delays", "channels"),
            grid=True,
            description="the Section V-A attack-space sweep",
        ),
        KindInfo(
            "exploit_suite",
            ("exploits", "config", "secret"),
            grid=True,
            description="a set of end-to-end exploits",
        ),
        KindInfo(
            "simulate_sweep",
            ("attacks", "defenses", "secret", "model"),
            grid=True,
            description="the (attack x defense) timing grid",
        ),
        KindInfo(
            "simulate_batch",
            ("points", "secret", "model"),
            required=("points",),
            grid=True,
            description="a list of timing points served via one warm session per worker",
        ),
        KindInfo(
            "window_ablation",
            ("attacks", "window_grid", "port_configs", "secret"),
            grid=True,
            description="the ROB/RS x port-config window-length ablation",
        ),
        KindInfo(
            "ablation",
            ("attack", "defenses", "secret", "config"),
            required=("attack",),
            grid=True,
            description="one exploit under each simulator defense in turn",
        ),
        KindInfo(
            "fuzz_point",
            ("seed", "index", "secret", "model", "inject", "sha"),
            required=("seed", "index"),
            description="one generated gadget through the three leak oracles",
        ),
        KindInfo(
            "fuzz_campaign",
            ("seed", "count", "secret", "model", "inject", "budget"),
            required=("seed", "count"),
            grid=True,
            description="a seeded differential fuzzing campaign over the three oracles",
        ),
    )
}


def _unknown_kind(kind: str) -> ValueError:
    return ValueError(
        f"unknown scenario kind {kind!r}; known: {', '.join(sorted(KINDS))}"
    )


#: Parameters that hold *sequences*.  A bare string here is almost always a
#: one-element axis the caller forgot to wrap (``attacks="spectre_v1"``);
#: without normalization the executors would iterate it character by
#: character and fail with a baffling per-letter error.
SEQUENCE_PARAMS = frozenset(
    {
        "attacks",
        "exploits",
        "defenses",
        "sources",
        "delays",
        "channels",
        "protected_symbols",
        "points",
        "window_grid",
        "port_configs",
    }
)


# ---------------------------------------------------------------------------
# Canonicalization and stable hashing
# ---------------------------------------------------------------------------
def _canonical(value: object) -> object:
    """Normalize a parameter value: sequences become tuples, dicts copies."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canonical(item) for item in value), key=stable_repr))
    return value


def stable_repr(value: object) -> str:
    """A process-independent rendering of a spec parameter value.

    ``repr`` alone is not stable: functions and bound builders render with
    memory addresses, enums with module paths that may move.  This walks the
    value and renders every leaf deterministically, so spec hashes agree
    between the CLI, a CI worker and a pool subprocess.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    # Programs are identified by their own content hash (name included).
    content_hash = getattr(value, "content_hash", None)
    if callable(content_hash) and hasattr(value, "listing"):
        return f"program:{content_hash()}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(stable_repr(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(stable_repr(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted((str(key), stable_repr(item)) for key, item in value.items())
        return "{" + ",".join(f"{key}:{item}" for key, item in items) + "}"
    if is_dataclass(value) and not isinstance(value, type):
        rendered = ",".join(
            f"{field.name}={stable_repr(getattr(value, field.name))}"
            for field in dataclass_fields(value)
        )
        return f"{type(value).__name__}({rendered})"
    if callable(value):
        name = getattr(value, "__qualname__", getattr(value, "__name__", "anonymous"))
        return f"fn:{getattr(value, '__module__', '?')}.{name}"
    return repr(value)


def _jsonable(value: object) -> object:
    """A JSON-serializable rendering of a parameter value (for ``to_dict``)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    content_hash = getattr(value, "content_hash", None)
    if callable(content_hash) and hasattr(value, "listing"):
        return {
            "__program__": getattr(value, "name", "program"),
            "sha256": content_hash(),
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(item) for item in value), key=str)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        rendered = {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclass_fields(value)
            if not callable(getattr(value, field.name))
        }
        key = getattr(value, "key", None)
        if key is not None:
            rendered = {"key": key}
        return {f"__{type(value).__name__}__": rendered}
    return stable_repr(value)


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------
class ScenarioSpec:
    """One frozen, content-hashable experiment point.

    ``ScenarioSpec("simulate", attack="spectre_v1", secret=0x5A)`` -- the
    kind is validated against :data:`KINDS`, unknown parameters raise, and
    parameters whose value is ``None`` are dropped (so an explicit default
    and an omitted parameter are the same point).  Specs compare and hash by
    content, making them directly usable as cache keys.
    """

    __slots__ = ("kind", "_params", "_content_key", "_content_hash", "_hash")

    def __init__(self, kind: str, /, **params: object) -> None:
        info = KINDS.get(kind)
        if info is None:
            raise _unknown_kind(kind)
        unknown = set(params) - info.params
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(sorted(unknown))} for kind "
                f"{kind!r}; allowed: {', '.join(sorted(info.params))}"
            )
        cleaned = {
            key: _canonical(
                (value,) if key in SEQUENCE_PARAMS and isinstance(value, str)
                else value
            )
            for key, value in params.items()
            if value is not None
        }
        missing = info.required - set(cleaned)
        if missing:
            raise ValueError(
                f"kind {kind!r} requires parameter(s): {', '.join(sorted(missing))}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "_params", MappingProxyType(dict(sorted(cleaned.items())))
        )
        object.__setattr__(self, "_content_key", None)
        object.__setattr__(self, "_content_hash", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ScenarioSpec is immutable")

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from the plain params so
        # specs can ship to pool workers for sharded grid execution.
        return (_rebuild_spec, (self.kind, dict(self._params)))

    # -- parameters ----------------------------------------------------
    @property
    def params(self) -> Mapping[str, object]:
        return self._params

    def get(self, name: str, default: object = None) -> object:
        return self._params.get(name, default)

    def replace(self, **params: object) -> "ScenarioSpec":
        """A new spec with the given parameters overridden (``None`` drops)."""
        merged = dict(self._params)
        merged.update(params)
        return ScenarioSpec(self.kind, **merged)

    @property
    def is_grid(self) -> bool:
        """Composite kinds sweep an internal grid and aggregate one envelope."""
        return KINDS[self.kind].grid

    # -- identity ------------------------------------------------------
    def content_key(self) -> str:
        """The canonical rendering the content hash is computed over."""
        if self._content_key is None:
            rendered = ";".join(
                f"{name}={stable_repr(value)}" for name, value in self._params.items()
            )
            object.__setattr__(self, "_content_key", f"{self.kind}({rendered})")
        return self._content_key

    def content_hash(self) -> str:
        """SHA-256 of the content key: the spec's artifact-store cache key.

        Cached after the first call -- the checkpointing grid pipeline asks
        for it once per warm-store probe, once per miss execution, and once
        per fault-plan match, for every point of a campaign.
        """
        if self._content_hash is None:
            digest = hashlib.sha256(self.content_key().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return self._content_hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.content_key() == other.content_key()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.content_key()))
        return self._hash

    def __repr__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"ScenarioSpec({self.kind!r}, {rendered})" if rendered else (
            f"ScenarioSpec({self.kind!r})"
        )

    def describe(self) -> str:
        """A short human-readable subject line for envelopes and logs."""
        for name in ("attack", "exploit", "program", "defense"):
            value = self._params.get(name)
            if value is not None:
                label = getattr(value, "name", None) or getattr(value, "key", None)
                return f"{self.kind}:{label if label is not None else value}"
        return self.kind

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "params": {name: _jsonable(value) for name, value in self._params.items()},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioSpec":
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ValueError("spec dict needs a string 'kind'")
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError("spec 'params' must be a mapping")
        return cls(kind, **dict(params))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def _rebuild_spec(kind: str, params: Dict[str, object]) -> "ScenarioSpec":
    return ScenarioSpec(kind, **params)


# ---------------------------------------------------------------------------
# ScenarioGrid
# ---------------------------------------------------------------------------
class ScenarioGrid:
    """A declarative set of experiment points: shared base + named axes.

    ``ScenarioGrid("simulate", base={"secret": 0x5A}, axes={"attack":
    ["spectre_v1", "meltdown"], "defenses": [(), ("PREVENT_SPECULATIVE_LOADS",)]})``
    expands to the cartesian product in deterministic order (axes in
    insertion order, values in the given order).  An axis value of ``None``
    means "parameter absent" for that point -- the natural encoding of an
    undefended baseline.  :meth:`explicit` wraps a hand-built spec list
    instead.
    """

    __slots__ = ("kind", "base", "axes", "_explicit")

    def __init__(
        self,
        kind: str,
        base: Optional[Mapping[str, object]] = None,
        axes: Optional[Mapping[str, Sequence[object]]] = None,
    ) -> None:
        if kind not in KINDS:
            raise _unknown_kind(kind)
        self.kind = kind
        self.base = dict(base or {})
        self.axes = {name: list(values) for name, values in (axes or {}).items()}
        self._explicit: Optional[List[ScenarioSpec]] = None
        allowed = KINDS[kind].params
        unknown = (set(self.base) | set(self.axes)) - allowed
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(sorted(unknown))} for kind "
                f"{kind!r}; allowed: {', '.join(sorted(allowed))}"
            )
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(
                f"parameter(s) {', '.join(sorted(overlap))} appear in both "
                "base and axes"
            )
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    @classmethod
    def explicit(cls, specs: Sequence[ScenarioSpec]) -> "ScenarioGrid":
        """A grid over a hand-built list of points (all of one kind)."""
        specs = list(specs)
        if not specs:
            raise ValueError("explicit grid needs at least one spec")
        kinds = {spec.kind for spec in specs}
        if len(kinds) != 1:
            raise ValueError(
                f"explicit grid mixes kinds: {', '.join(sorted(kinds))}"
            )
        grid = cls(specs[0].kind)
        grid._explicit = specs
        return grid

    # -- expansion -----------------------------------------------------
    def specs(self) -> List[ScenarioSpec]:
        """Every point of the grid, in deterministic expansion order."""
        if self._explicit is not None:
            return list(self._explicit)
        names = list(self.axes)
        combos = product(*(self.axes[name] for name in names))
        return [
            ScenarioSpec(self.kind, **{**self.base, **dict(zip(names, combo))})
            for combo in combos
        ]

    def __len__(self) -> int:
        if self._explicit is not None:
            return len(self._explicit)
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def __iter__(self) -> Iterable[ScenarioSpec]:
        return iter(self.specs())

    # -- identity ------------------------------------------------------
    def content_key(self) -> str:
        if self._explicit is not None:
            rendered = ",".join(spec.content_key() for spec in self._explicit)
            return f"grid:{self.kind}[{rendered}]"
        base = ";".join(
            f"{name}={stable_repr(value)}"
            for name, value in sorted(self.base.items())
        )
        axes = ";".join(
            f"{name}=[{','.join(stable_repr(v) for v in values)}]"
            for name, values in self.axes.items()
        )
        return f"grid:{self.kind}({base})x({axes})"

    def content_hash(self) -> str:
        return hashlib.sha256(self.content_key().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        if self._explicit is not None:
            return f"ScenarioGrid.explicit({len(self._explicit)} x {self.kind!r})"
        axes = ", ".join(f"{name}[{len(values)}]" for name, values in self.axes.items())
        return f"ScenarioGrid({self.kind!r}, axes: {axes or '-'})"

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        if self._explicit is not None:
            return {
                "kind": self.kind,
                "specs": [spec.to_dict() for spec in self._explicit],
            }
        return {
            "kind": self.kind,
            "base": {name: _jsonable(value) for name, value in self.base.items()},
            "axes": {
                name: [_jsonable(value) for value in values]
                for name, values in self.axes.items()
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioGrid":
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ValueError("grid dict needs a string 'kind'")
        if "specs" in payload:
            return cls.explicit(
                [ScenarioSpec.from_dict(item) for item in payload["specs"]]
            )
        return cls(kind, payload.get("base"), payload.get("axes"))


# ---------------------------------------------------------------------------
# Loading declarative specs from disk (the ``repro run --spec`` path)
# ---------------------------------------------------------------------------
def resolve_program_params(params: Dict[str, object], anchor: Path) -> None:
    """Inline a ``program_path`` reference so the spec hashes file *content*.

    A path-keyed cache entry would serve stale results after the file is
    edited; reading the source at load time makes the content hash cover
    what will actually be analyzed.  Relative paths resolve against
    ``anchor`` (the spec file's directory, or the CLI's working directory).
    """
    path_value = params.pop("program_path", None)
    if path_value is None:
        return
    source = Path(path_value)
    if not source.is_absolute():
        source = anchor / source
    params.setdefault("name", str(path_value))
    params["program"] = source.read_text(encoding="utf-8")


def load(path: Union[str, Path]) -> Union[ScenarioSpec, ScenarioGrid]:
    """Load a spec or grid from a JSON file.

    A dict with ``axes`` or ``specs`` is a :class:`ScenarioGrid`; anything
    else is a single :class:`ScenarioSpec`.  ``program_path`` parameters --
    in a spec's ``params``, a grid's ``base``, or each entry of an explicit
    ``specs`` list -- are resolved relative to the spec file and inlined as
    program source.
    """
    spec_path = Path(path)
    payload = json.loads(spec_path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec file must hold a JSON object")
    anchor = spec_path.resolve().parent
    if "axes" in payload or "specs" in payload:
        if "specs" in payload:
            points = []
            for item in payload["specs"]:
                item_params = dict(item.get("params") or {})
                resolve_program_params(item_params, anchor)
                points.append({**item, "params": item_params})
            payload = {**payload, "specs": points}
        else:
            base = dict(payload.get("base") or {})
            resolve_program_params(base, anchor)
            payload = {**payload, "base": base}
        return ScenarioGrid.from_dict(payload)
    params = dict(payload.get("params") or {})
    resolve_program_params(params, anchor)
    return ScenarioSpec.from_dict({**payload, "params": params})


# ---------------------------------------------------------------------------
# Decoders: declarative (name / dict) values -> library objects
# ---------------------------------------------------------------------------
def decode_program(value: object, name: Optional[str] = None):
    """A :class:`Program` from either a Program or assembly source text."""
    if isinstance(value, str):
        from .isa.assembler import assemble

        return assemble(value, name=name or "program")
    if hasattr(value, "content_hash") and hasattr(value, "listing"):
        return value
    raise TypeError(
        "program parameter must be a Program or assembly source text, "
        f"not {type(value).__name__}"
    )


def decode_defense(value: object):
    """A :class:`Defense` from either a Defense or a catalog key."""
    if isinstance(value, str):
        from .defenses import get as get_defense

        return get_defense(value)
    return value


def decode_attack_variant(value: object):
    """An :class:`AttackVariant` from either a variant or a registry key."""
    if isinstance(value, str):
        from .attacks import get as get_attack

        return get_attack(value)
    return value


def decode_sim_defense(value: object):
    """A :class:`SimDefense` from either the enum or its name."""
    from .uarch.defenses import SimDefense

    if isinstance(value, SimDefense):
        return value
    if isinstance(value, str):
        try:
            return SimDefense[value.upper()]
        except KeyError:
            known = ", ".join(defense.name.lower() for defense in SimDefense)
            raise ValueError(f"unknown simulator defense {value!r}; known: {known}")
    raise TypeError(f"cannot decode simulator defense from {type(value).__name__}")


def decode_sim_defenses(values: Optional[Sequence[object]]) -> Tuple[object, ...]:
    """A tuple of :class:`SimDefense` (``None`` -> empty)."""
    if values is None:
        return ()
    return tuple(decode_sim_defense(value) for value in values)


#: Named timing-model presets accepted wherever a model parameter appears.
MODEL_PRESETS = ("default", "contended", "serialized")


def decode_model(value: object):
    """A :class:`TimingModel` from a model, a preset name, or a field dict.

    Returns ``None`` for ``None`` (callers fall back to the default model),
    so an absent parameter and the default model are the same cache key.
    """
    if value is None:
        return None
    from .uarch.timing.scheduler import (
        CONTENDED_MODEL,
        DEFAULT_MODEL,
        SERIALIZED_MODEL,
        TimingModel,
    )

    if isinstance(value, TimingModel):
        return value
    if isinstance(value, str):
        presets = {
            "default": DEFAULT_MODEL,
            "contended": CONTENDED_MODEL,
            "serialized": SERIALIZED_MODEL,
        }
        try:
            return presets[value]
        except KeyError:
            raise ValueError(
                f"unknown timing model {value!r}; known presets: "
                f"{', '.join(MODEL_PRESETS)}"
            )
    if isinstance(value, Mapping):
        return TimingModel(**dict(value))
    raise TypeError(f"cannot decode timing model from {type(value).__name__}")


def decode_config(value: object):
    """A :class:`UarchConfig` from a config or a field dict (defenses by name)."""
    if value is None:
        return None
    from .uarch.config import UarchConfig

    if isinstance(value, UarchConfig):
        return value
    if isinstance(value, Mapping):
        fields = dict(value)
        defenses = fields.pop("defenses", ())
        config = UarchConfig(**fields)
        if defenses:
            config = config.with_defenses(*decode_sim_defenses(defenses))
        return config
    raise TypeError(f"cannot decode uarch config from {type(value).__name__}")


def _decode_enum(enum_cls, value: object):
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls[value.upper()]
        except KeyError:
            known = ", ".join(member.name.lower() for member in enum_cls)
            raise ValueError(
                f"unknown {enum_cls.__name__} {value!r}; known: {known}"
            )
    raise TypeError(f"cannot decode {enum_cls.__name__} from {type(value).__name__}")


def decode_axis_enums(enum_cls, values: Optional[Sequence[object]]):
    """A list of enum members (or ``None`` passthrough) from names/members."""
    if values is None:
        return None
    return [_decode_enum(enum_cls, value) for value in values]


def decode_points(values: Optional[Sequence[object]]):
    """Protection points from enum members or names (``None`` passthrough)."""
    if values is None:
        return None
    from .core.security_dependency import ProtectionPoint

    decoded = []
    for value in values:
        if isinstance(value, ProtectionPoint):
            decoded.append(value)
        elif isinstance(value, str):
            try:
                decoded.append(ProtectionPoint(value))
            except ValueError:
                decoded.append(ProtectionPoint[value.upper()])
        else:
            raise TypeError(
                f"cannot decode protection point from {type(value).__name__}"
            )
    return decoded


def decode_secret(value: object) -> Optional[int]:
    """An int secret from an int or a string literal (``"0x5a"``)."""
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value, 0)
    raise TypeError(f"cannot decode secret from {type(value).__name__}")
