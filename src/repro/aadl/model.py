"""Declarative AADL metamodel.

This is the Python counterpart of the ASME (AADL Syntax Model under Eclipse)
metamodel used by the paper's tool chain: packages, component types and
implementations for every AADL component category, features (ports, data /
subprogram accesses, parameters), subcomponents, connections, modes and
property associations.

The metamodel is purely declarative; :mod:`repro.aadl.instance` builds the
instance tree a translator actually works on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import AadlSemanticError, SourceLocation
from .properties import PropertyAssociation, PropertyMap


class ComponentCategory(enum.Enum):
    """AADL component categories (software, execution platform, composite)."""

    SYSTEM = "system"
    PROCESS = "process"
    THREAD = "thread"
    THREAD_GROUP = "thread group"
    SUBPROGRAM = "subprogram"
    SUBPROGRAM_GROUP = "subprogram group"
    DATA = "data"
    PROCESSOR = "processor"
    VIRTUAL_PROCESSOR = "virtual processor"
    MEMORY = "memory"
    BUS = "bus"
    VIRTUAL_BUS = "virtual bus"
    DEVICE = "device"
    ABSTRACT = "abstract"

    @classmethod
    def from_keyword(cls, keyword: str) -> "ComponentCategory":
        lowered = " ".join(keyword.lower().split())
        for member in cls:
            if member.value == lowered:
                return member
        raise AadlSemanticError(f"unknown component category {keyword!r}")

    @property
    def is_software(self) -> bool:
        return self in (
            ComponentCategory.PROCESS,
            ComponentCategory.THREAD,
            ComponentCategory.THREAD_GROUP,
            ComponentCategory.SUBPROGRAM,
            ComponentCategory.SUBPROGRAM_GROUP,
            ComponentCategory.DATA,
        )

    @property
    def is_execution_platform(self) -> bool:
        return self in (
            ComponentCategory.PROCESSOR,
            ComponentCategory.VIRTUAL_PROCESSOR,
            ComponentCategory.MEMORY,
            ComponentCategory.BUS,
            ComponentCategory.VIRTUAL_BUS,
            ComponentCategory.DEVICE,
        )


class PortDirection(enum.Enum):
    IN = "in"
    OUT = "out"
    IN_OUT = "in out"


class PortKind(enum.Enum):
    DATA = "data"
    EVENT = "event"
    EVENT_DATA = "event data"


class AccessKind(enum.Enum):
    REQUIRES = "requires"
    PROVIDES = "provides"


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------
@dataclass
class Feature:
    """Base class of component features."""

    name: str
    properties: PropertyMap = field(default_factory=PropertyMap)
    location: Optional[SourceLocation] = None

    @property
    def kind_keyword(self) -> str:
        raise NotImplementedError


@dataclass
class Port(Feature):
    """A data, event or event data port."""

    direction: PortDirection = PortDirection.IN
    kind: PortKind = PortKind.EVENT
    classifier: Optional[str] = None

    @property
    def kind_keyword(self) -> str:
        return f"{self.direction.value} {self.kind.value} port"

    @property
    def is_in(self) -> bool:
        return self.direction in (PortDirection.IN, PortDirection.IN_OUT)

    @property
    def is_out(self) -> bool:
        return self.direction in (PortDirection.OUT, PortDirection.IN_OUT)

    @property
    def carries_data(self) -> bool:
        return self.kind in (PortKind.DATA, PortKind.EVENT_DATA)

    @property
    def is_event(self) -> bool:
        return self.kind in (PortKind.EVENT, PortKind.EVENT_DATA)


@dataclass
class DataAccess(Feature):
    """``requires/provides data access`` feature (shared data)."""

    access: AccessKind = AccessKind.REQUIRES
    classifier: Optional[str] = None

    @property
    def kind_keyword(self) -> str:
        return f"{self.access.value} data access"


@dataclass
class SubprogramAccess(Feature):
    """``requires/provides subprogram access`` feature."""

    access: AccessKind = AccessKind.REQUIRES
    classifier: Optional[str] = None

    @property
    def kind_keyword(self) -> str:
        return f"{self.access.value} subprogram access"


@dataclass
class BusAccess(Feature):
    """``requires/provides bus access`` feature."""

    access: AccessKind = AccessKind.REQUIRES
    classifier: Optional[str] = None

    @property
    def kind_keyword(self) -> str:
        return f"{self.access.value} bus access"


@dataclass
class Parameter(Feature):
    """Subprogram parameter."""

    direction: PortDirection = PortDirection.IN
    classifier: Optional[str] = None

    @property
    def kind_keyword(self) -> str:
        return f"{self.direction.value} parameter"


# ----------------------------------------------------------------------
# classifiers
# ----------------------------------------------------------------------
@dataclass
class ComponentType:
    """An AADL component type: category, features, properties."""

    name: str
    category: ComponentCategory
    features: Dict[str, Feature] = field(default_factory=dict)
    properties: PropertyMap = field(default_factory=PropertyMap)
    extends: Optional[str] = None
    flows: List[str] = field(default_factory=list)
    location: Optional[SourceLocation] = None

    def add_feature(self, feature: Feature) -> Feature:
        if feature.name in self.features:
            raise AadlSemanticError(f"duplicate feature {feature.name!r} in {self.name}", feature.location)
        self.features[feature.name] = feature
        return feature

    def ports(self) -> List[Port]:
        return [f for f in self.features.values() if isinstance(f, Port)]

    def data_accesses(self) -> List[DataAccess]:
        return [f for f in self.features.values() if isinstance(f, DataAccess)]

    def subprogram_accesses(self) -> List[SubprogramAccess]:
        return [f for f in self.features.values() if isinstance(f, SubprogramAccess)]

    @property
    def qualified_name(self) -> str:
        return self.name


@dataclass
class Subcomponent:
    """A subcomponent declaration inside a component implementation."""

    name: str
    category: ComponentCategory
    classifier: Optional[str] = None
    properties: PropertyMap = field(default_factory=PropertyMap)
    in_modes: Tuple[str, ...] = ()
    location: Optional[SourceLocation] = None


class ConnectionKind(enum.Enum):
    PORT = "port"
    DATA_ACCESS = "data access"
    SUBPROGRAM_ACCESS = "subprogram access"
    BUS_ACCESS = "bus access"
    PARAMETER = "parameter"
    FEATURE = "feature"


@dataclass(frozen=True)
class ConnectionEnd:
    """One end of a connection: ``subcomponent.feature`` or a local ``feature``."""

    subcomponent: Optional[str]
    feature: str

    def __str__(self) -> str:
        if self.subcomponent:
            return f"{self.subcomponent}.{self.feature}"
        return self.feature


@dataclass
class Connection:
    """A connection declaration (port, access or parameter connection)."""

    name: str
    kind: ConnectionKind
    source: ConnectionEnd
    destination: ConnectionEnd
    bidirectional: bool = False
    properties: PropertyMap = field(default_factory=PropertyMap)
    in_modes: Tuple[str, ...] = ()
    location: Optional[SourceLocation] = None

    @property
    def timing(self) -> str:
        """Connection timing: ``immediate`` (default) or ``delayed``."""
        value = self.properties.value("Timing", "Immediate")
        return str(value).lower()


@dataclass
class Mode:
    """An operational mode of a component implementation."""

    name: str
    initial: bool = False
    properties: PropertyMap = field(default_factory=PropertyMap)
    location: Optional[SourceLocation] = None


@dataclass
class ModeTransition:
    """A mode transition ``source -[ trigger, … ]-> destination``."""

    name: Optional[str]
    source: str
    destination: str
    triggers: Tuple[str, ...] = ()
    properties: PropertyMap = field(default_factory=PropertyMap)
    location: Optional[SourceLocation] = None

    @property
    def priority(self) -> Optional[int]:
        value = self.properties.value("Priority")
        return int(value) if value is not None else None


@dataclass
class ComponentImplementation:
    """An AADL component implementation: subcomponents, connections, modes."""

    name: str  # "Type.Impl"
    category: ComponentCategory
    subcomponents: Dict[str, Subcomponent] = field(default_factory=dict)
    connections: List[Connection] = field(default_factory=list)
    properties: PropertyMap = field(default_factory=PropertyMap)
    modes: Dict[str, Mode] = field(default_factory=dict)
    mode_transitions: List[ModeTransition] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)
    extends: Optional[str] = None
    location: Optional[SourceLocation] = None

    @property
    def type_name(self) -> str:
        return self.name.split(".")[0]

    @property
    def implementation_name(self) -> str:
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""

    def add_subcomponent(self, subcomponent: Subcomponent) -> Subcomponent:
        if subcomponent.name in self.subcomponents:
            raise AadlSemanticError(
                f"duplicate subcomponent {subcomponent.name!r} in {self.name}", subcomponent.location
            )
        self.subcomponents[subcomponent.name] = subcomponent
        return subcomponent

    def add_connection(self, connection: Connection) -> Connection:
        self.connections.append(connection)
        return connection

    def initial_mode(self) -> Optional[Mode]:
        for mode in self.modes.values():
            if mode.initial:
                return mode
        return None


# ----------------------------------------------------------------------
# packages and the model root
# ----------------------------------------------------------------------
@dataclass
class PropertySetDeclaration:
    """A (possibly only partially interpreted) ``property set`` declaration."""

    name: str
    declarations: Dict[str, str] = field(default_factory=dict)
    location: Optional[SourceLocation] = None


@dataclass
class AadlPackage:
    """An AADL package: named container of classifiers."""

    name: str
    imports: List[str] = field(default_factory=list)
    types: Dict[str, ComponentType] = field(default_factory=dict)
    implementations: Dict[str, ComponentImplementation] = field(default_factory=dict)
    properties: PropertyMap = field(default_factory=PropertyMap)
    location: Optional[SourceLocation] = None

    def add_type(self, component_type: ComponentType) -> ComponentType:
        if component_type.name in self.types:
            raise AadlSemanticError(
                f"duplicate component type {component_type.name!r} in package {self.name}",
                component_type.location,
            )
        self.types[component_type.name] = component_type
        return component_type

    def add_implementation(self, implementation: ComponentImplementation) -> ComponentImplementation:
        if implementation.name in self.implementations:
            raise AadlSemanticError(
                f"duplicate component implementation {implementation.name!r} in package {self.name}",
                implementation.location,
            )
        self.implementations[implementation.name] = implementation
        return implementation

    def classifiers(self) -> List[str]:
        return list(self.types) + list(self.implementations)


class AadlModel:
    """Root of a declarative AADL model: packages and property sets."""

    def __init__(self) -> None:
        self.packages: Dict[str, AadlPackage] = {}
        self.property_sets: Dict[str, PropertySetDeclaration] = {}

    # ------------------------------------------------------------------
    def add_package(self, package: AadlPackage) -> AadlPackage:
        if package.name in self.packages:
            raise AadlSemanticError(f"duplicate package {package.name!r}")
        self.packages[package.name] = package
        return package

    def add_property_set(self, property_set: PropertySetDeclaration) -> PropertySetDeclaration:
        self.property_sets[property_set.name] = property_set
        return property_set

    def merge(self, other: "AadlModel") -> "AadlModel":
        """Merge the packages of another model into this one (shared library use)."""
        for package in other.packages.values():
            if package.name not in self.packages:
                self.packages[package.name] = package
        for property_set in other.property_sets.values():
            self.property_sets.setdefault(property_set.name, property_set)
        return self

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _split(self, qualified_name: str) -> Tuple[Optional[str], str]:
        if "::" in qualified_name:
            package, _, name = qualified_name.rpartition("::")
            return package, name
        return None, qualified_name

    def find_type(self, qualified_name: str, default_package: Optional[str] = None) -> Optional[ComponentType]:
        package_name, name = self._split(qualified_name)
        candidates: Iterable[AadlPackage]
        if package_name:
            package = self.packages.get(package_name)
            candidates = [package] if package else []
        elif default_package and default_package in self.packages:
            candidates = [self.packages[default_package]] + [
                p for n, p in self.packages.items() if n != default_package
            ]
        else:
            candidates = self.packages.values()
        for package in candidates:
            if name in package.types:
                return package.types[name]
        return None

    def find_implementation(
        self, qualified_name: str, default_package: Optional[str] = None
    ) -> Optional[ComponentImplementation]:
        package_name, name = self._split(qualified_name)
        if package_name:
            package = self.packages.get(package_name)
            return package.implementations.get(name) if package else None
        if default_package and default_package in self.packages:
            package = self.packages[default_package]
            if name in package.implementations:
                return package.implementations[name]
        for package in self.packages.values():
            if name in package.implementations:
                return package.implementations[name]
        return None

    def find_classifier(
        self, qualified_name: str, default_package: Optional[str] = None
    ):
        """Find a type or an implementation by (possibly qualified) name."""
        implementation = self.find_implementation(qualified_name, default_package)
        if implementation is not None:
            return implementation
        return self.find_type(qualified_name, default_package)

    def type_of_implementation(
        self, implementation: ComponentImplementation, default_package: Optional[str] = None
    ) -> Optional[ComponentType]:
        return self.find_type(implementation.type_name, default_package)

    # ------------------------------------------------------------------
    # statistics (used by the scalability experiment)
    # ------------------------------------------------------------------
    def component_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for package in self.packages.values():
            for component_type in package.types.values():
                key = component_type.category.value
                counts[key] = counts.get(key, 0) + 1
        return counts

    def classifier_count(self) -> int:
        return sum(len(p.types) + len(p.implementations) for p in self.packages.values())

    def all_implementations(self) -> List[ComponentImplementation]:
        out: List[ComponentImplementation] = []
        for package in self.packages.values():
            out.extend(package.implementations.values())
        return out

    def all_types(self) -> List[ComponentType]:
        out: List[ComponentType] = []
        for package in self.packages.values():
            out.extend(package.types.values())
        return out


def default_root(model: AadlModel) -> Optional[str]:
    """Pick the most plausible root implementation of *model*.

    A system implementation that is not itself used as a subcomponent
    anywhere, preferring the one with the most subcomponents; failing
    that, the first process implementation; ``None`` when there is
    neither.
    """
    used_classifiers = {
        subcomponent.classifier
        for implementation in model.all_implementations()
        for subcomponent in implementation.subcomponents.values()
        if subcomponent.classifier
    }
    candidates = [
        implementation
        for implementation in model.all_implementations()
        if implementation.category is ComponentCategory.SYSTEM
    ]
    top_level = [c for c in candidates if c.name not in used_classifiers] or candidates
    if top_level:
        return max(top_level, key=lambda impl: len(impl.subcomponents)).name
    for implementation in model.all_implementations():
        if implementation.category is ComponentCategory.PROCESS:
            return implementation.name
    return None
