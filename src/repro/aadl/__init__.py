"""AADL front-end: metamodel, textual parser, instance model and checks.

This subpackage replaces the OSATE/Eclipse front-end of the paper's tool
chain: it parses a textual AADL subset, builds the declarative model
(the ASME analogue), instantiates a root system, resolves properties and
bindings, and validates the result before translation.
"""

from .errors import (
    AadlError,
    AadlInstantiationError,
    AadlSemanticError,
    AadlSyntaxError,
    AadlValidationError,
    Diagnostic,
    DiagnosticCollector,
    SourceLocation,
)
from .model import (
    AadlModel,
    AadlPackage,
    AccessKind,
    BusAccess,
    ComponentCategory,
    ComponentImplementation,
    ComponentType,
    Connection,
    ConnectionEnd,
    ConnectionKind,
    DataAccess,
    Feature,
    Mode,
    ModeTransition,
    Parameter,
    Port,
    PortDirection,
    PortKind,
    PropertySetDeclaration,
    Subcomponent,
    SubprogramAccess,
)
from .properties import (
    ACTUAL_PROCESSOR_BINDING,
    COMPUTE_EXECUTION_TIME,
    DEADLINE,
    DISPATCH_PROTOCOL,
    INPUT_TIME,
    OUTPUT_TIME,
    PERIOD,
    PRIORITY,
    QUEUE_PROCESSING_PROTOCOL,
    QUEUE_SIZE,
    BooleanValue,
    ClassifierValue,
    DispatchProtocol,
    EnumerationValue,
    IntegerValue,
    IOReference,
    IOTimeSpec,
    ListValue,
    PropertyAssociation,
    PropertyMap,
    PropertyValue,
    RangeValue,
    RealValue,
    RecordValue,
    ReferenceValue,
    StringValue,
    boolean,
    convert_time,
    enum_value,
    integer,
    io_time,
    ms,
    parse_io_time,
    parse_time_value,
    record,
    reference,
    string,
)
from .lexer import Lexer, Token, TokenKind, tokenize
from .parser import Parser, parse_file, parse_string
from .instance import (
    ComponentInstance,
    ConnectionInstance,
    FeatureInstance,
    InstanceReport,
    Instantiator,
    instance_report,
    instantiate,
    processor_bindings,
)
from .validation import validate, validate_declarative_model, validate_instance_model
from .printer import render_component_implementation, render_component_type, render_model, render_package
from . import stdlib

__all__ = [
    # errors
    "AadlError", "AadlInstantiationError", "AadlSemanticError", "AadlSyntaxError",
    "AadlValidationError", "Diagnostic", "DiagnosticCollector", "SourceLocation",
    # model
    "AadlModel", "AadlPackage", "AccessKind", "BusAccess", "ComponentCategory",
    "ComponentImplementation", "ComponentType", "Connection", "ConnectionEnd",
    "ConnectionKind", "DataAccess", "Feature", "Mode", "ModeTransition",
    "Parameter", "Port", "PortDirection", "PortKind", "PropertySetDeclaration",
    "Subcomponent", "SubprogramAccess",
    # properties
    "ACTUAL_PROCESSOR_BINDING", "COMPUTE_EXECUTION_TIME", "DEADLINE",
    "DISPATCH_PROTOCOL", "INPUT_TIME", "OUTPUT_TIME", "PERIOD", "PRIORITY",
    "QUEUE_PROCESSING_PROTOCOL", "QUEUE_SIZE",
    "BooleanValue", "ClassifierValue", "DispatchProtocol", "EnumerationValue",
    "IntegerValue", "IOReference", "IOTimeSpec", "ListValue",
    "PropertyAssociation", "PropertyMap", "PropertyValue", "RangeValue",
    "RealValue", "RecordValue", "ReferenceValue", "StringValue",
    "boolean", "convert_time", "enum_value", "integer", "io_time", "ms",
    "parse_io_time", "parse_time_value", "record", "reference", "string",
    # lexer / parser
    "Lexer", "Token", "TokenKind", "tokenize", "Parser", "parse_file", "parse_string",
    # instance
    "ComponentInstance", "ConnectionInstance", "FeatureInstance", "InstanceReport",
    "Instantiator", "instance_report", "instantiate", "processor_bindings",
    # validation / printing
    "validate", "validate_declarative_model", "validate_instance_model",
    "render_component_implementation", "render_component_type", "render_model",
    "render_package",
    # stdlib
    "stdlib",
]
