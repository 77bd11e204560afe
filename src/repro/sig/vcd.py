"""Value Change Dump (VCD) writer and reader.

The paper demonstrates co-simulation of the translated AADL models using the
VCD technique [18]: the simulation of the generated SIGNAL code emits a VCD
trace that standard waveform viewers display.  This module writes IEEE-1364
style VCD files and provides a small parser so that tests and benches can
check traces programmatically (our substitution for an interactive waveform
viewer).

The writer comes in two shapes over one implementation:

* :class:`StreamingVcdSink` — a :class:`~repro.sig.sinks.TraceSink` that
  serialises each instant to disk as the simulation produces it, so a
  million-instant run never holds more than one instant in memory (pass it
  to ``simulate(..., sinks=[...])`` or ``repro simulate --stream-vcd``);
* :class:`VcdWriter` / :func:`write_vcd` — the legacy post-hoc API over a
  materialised :class:`~repro.sig.simulator.SimulationTrace`, now a thin
  wrapper that replays the trace through the streaming sink (byte-identical
  output to previous releases).
"""

from __future__ import annotations

import io
import string
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .simulator import SimulationTrace
from .sinks import TraceHeader, TraceSink, replay_trace
from .values import SignalKind, SignalType, is_absent

_IDENT_ALPHABET = string.ascii_letters + string.digits + "!#$%&'()*+,-./:;<=>?@[]^_`{|}~"

#: ``(var_type, size)`` of one declared VCD variable.
VariableShape = Tuple[str, int]


def _identifier(index: int) -> str:
    """Short VCD identifier code for the *index*-th variable."""
    if index < 0:
        raise ValueError("identifier index must be non-negative")
    base = len(_IDENT_ALPHABET)
    out = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, base)
        out.append(_IDENT_ALPHABET[rem])
    return "".join(reversed(out))


@dataclass
class VcdVariable:
    """One declared VCD variable."""

    name: str
    identifier: str
    var_type: str
    size: int


@dataclass
class VcdDocument:
    """Parsed content of a VCD file."""

    timescale: str
    variables: Dict[str, VcdVariable]
    changes: Dict[int, Dict[str, str]] = field(default_factory=dict)

    def times(self) -> List[int]:
        """All timestamps that carry at least one value change, sorted."""
        return sorted(self.changes)

    def changes_of(self, signal: str) -> List[Tuple[int, str]]:
        """All (time, raw value) changes of one signal, by declared name."""
        var = self.variables.get(signal)
        if var is None:
            raise KeyError(f"unknown VCD variable {signal!r}")
        out = []
        for time in self.times():
            if var.identifier in self.changes[time]:
                out.append((time, self.changes[time][var.identifier]))
        return out

    def activation_times(self, signal: str) -> List[int]:
        """Times at which *signal* took a non-idle ('1' or value) state."""
        out = []
        for time, value in self.changes_of(signal):
            if value not in ("0", "z", "x"):
                out.append(time)
        return out


def _shape_of_values(values: Iterable[Any]) -> VariableShape:
    """Variable shape inferred from the first present value of a flow."""
    for value in values:
        if is_absent(value):
            continue
        if isinstance(value, bool):
            return "wire", 1
        if isinstance(value, int):
            return "reg", 32
        if isinstance(value, float):
            return "real", 64
        return "reg", 8 * max(1, len(str(value)))
    return "wire", 1


def shapes_from_trace(
    trace: SimulationTrace, signals: Optional[Iterable[str]] = None
) -> Dict[str, VariableShape]:
    """Variable shapes of a materialised trace (first-present-value rule)."""
    names = list(signals) if signals is not None else trace.signals()
    return {name: _shape_of_values(trace.flows[name]) for name in names}


def shape_for_type(signal_type: Optional[SignalType]) -> VariableShape:
    """Variable shape of a *declared* signal type (the streaming rule).

    A live simulation cannot scan the flow for its first present value, so
    the streaming sink maps the declared SIGNAL type instead: events and
    booleans become 1-bit wires, integers 32-bit registers, reals 64-bit
    reals; strings and opaque data become 256-bit registers (strings up to
    32 characters stay within the declared width; the encoder emits longer
    values at their full width, which viewers may flag).  Undeclared
    (scenario-only) names fall back to a 32-bit register, which keeps
    integer values exact — a 1-bit wire would silently collapse them to
    0/1; non-integer values on such signals render as bit strings, unlike
    the post-hoc writer, which can scan the materialised flow for the real
    type.  Pass an explicit ``shapes=`` mapping to
    :class:`StreamingVcdSink` when those defaults do not fit.
    """
    if signal_type is None:
        return "reg", 32
    if signal_type.kind in (SignalKind.EVENT, SignalKind.BOOLEAN):
        return "wire", 1
    if signal_type.kind is SignalKind.INTEGER:
        return "reg", 32
    if signal_type.kind is SignalKind.REAL:
        return "real", 64
    return "reg", 256


class StreamingVcdSink(TraceSink):
    """Serialise a simulation to VCD text instant by instant.

    *target* is either a path (the file is opened at :meth:`on_header` and
    closed at :meth:`on_close`) or any object with a ``write`` method.
    Memory use is O(signals): only the previous encoded value of each
    variable is retained, to emit change-only deltas.

    Variable shapes are resolved per signal, in precedence order: the
    explicit *shapes* mapping (what the legacy writer passes after scanning
    the materialised flows), then the declared types of the
    :class:`~repro.sig.sinks.TraceHeader`, then a 1-bit wire.  Event and
    boolean signals pulse at their present instants; absent instants return
    the wire to ``z`` so the clock of each signal stays visible in the
    waveform, as in the paper's co-simulation demonstrator.
    """

    def __init__(
        self,
        target: Union[str, Any],
        timescale: str = "1 ms",
        date: str = "generated by repro.sig.vcd",
        scope: str = "polychrony",
        tick_duration: int = 1,
        shapes: Optional[Mapping[str, VariableShape]] = None,
    ) -> None:
        self.timescale = timescale
        self.date = date
        self.scope = scope
        self.tick_duration = tick_duration
        self.shapes = dict(shapes) if shapes is not None else None
        self.path = target if isinstance(target, str) else None
        self._handle = None if isinstance(target, str) else target
        self._owns_handle = isinstance(target, str)
        self._variables: Dict[str, VcdVariable] = {}
        self._names: Tuple[str, ...] = ()
        self._previous: Dict[str, str] = {}
        self._instants_seen = 0
        self._closed = False

    # ------------------------------------------------------------------
    def on_header(self, header: TraceHeader) -> None:
        super().on_header(header)
        if self._owns_handle:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._names = header.signals
        self._previous = {}
        self._instants_seen = 0
        self._closed = False

        write = self._handle.write
        write(f"$date {self.date} $end\n")
        write(f"$timescale {self.timescale} $end\n")
        write(f"$scope module {self.scope} $end\n")
        self._variables = {}
        for index, name in enumerate(self._names):
            if self.shapes is not None and name in self.shapes:
                var_type, size = self.shapes[name]
            else:
                var_type, size = shape_for_type(header.types.get(name))
            identifier = _identifier(index)
            self._variables[name] = VcdVariable(name, identifier, var_type, size)
            write(f"$var {var_type} {size} {identifier} {name} $end\n")
        write("$upscope $end\n")
        write("$enddefinitions $end\n")

        write("$dumpvars\n")
        for name in self._names:
            var = self._variables[name]
            if var.var_type == "real":
                write(f"r0 {var.identifier}\n")
            elif var.size == 1:
                write(f"z{var.identifier}\n")
            else:
                write(f"bz {var.identifier}\n")
        write("$end\n")

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        changes: List[str] = []
        previous = self._previous
        for name, value in zip(self._names, values):
            encoded = self._encode(self._variables[name], value)
            if previous.get(name) != encoded:
                changes.append(encoded)
                previous[name] = encoded
        if changes:
            write = self._handle.write
            write(f"#{instant * self.tick_duration}\n")
            for encoded in changes:
                write(encoded)
                write("\n")
        self._instants_seen = instant + 1

    def on_close(self) -> None:
        if self._closed or self._handle is None or self.header is None:
            return
        self._closed = True
        # An aborted run closes at the last instant it reached; a complete
        # run closes at the scenario length, like the legacy writer.
        end = self.header.length if self._instants_seen >= self.header.length else self._instants_seen
        self._handle.write(f"#{end * self.tick_duration}\n")
        if self._owns_handle:
            self._handle.close()
            self._handle = None

    def result(self) -> Optional[str]:
        """The written path (``None`` when streaming to a caller's handle)."""
        return self.path

    # ------------------------------------------------------------------
    @staticmethod
    def _encode(var: VcdVariable, value: object) -> str:
        """One value-change line for *value* on *var* (legacy encoding)."""
        if var.var_type == "real":
            if is_absent(value):
                return f"r0 {var.identifier}"
            return f"r{float(value)} {var.identifier}"
        if var.size == 1:
            if is_absent(value):
                return f"z{var.identifier}"
            return f"{'1' if bool(value) else '0'}{var.identifier}"
        if is_absent(value):
            return f"bz {var.identifier}"
        if isinstance(value, int) and not isinstance(value, bool):
            bits = format(value & (2 ** var.size - 1), "b")
            return f"b{bits} {var.identifier}"
        text = "".join(format(ord(c), "08b") for c in str(value)) or "0"
        return f"b{text} {var.identifier}"


class VcdWriter:
    """Serialise materialised simulation traces to VCD text.

    The rendering itself is a replay of the trace through
    :class:`StreamingVcdSink` — one implementation serves both the post-hoc
    and the streaming paths, and their outputs are byte-identical for the
    same trace (enforced by the shared edge-case tests in
    ``tests/sig/test_vcd.py``).
    """

    def __init__(self, timescale: str = "1 ms", date: str = "generated by repro.sig.vcd") -> None:
        self.timescale = timescale
        self.date = date

    def render(
        self,
        trace: SimulationTrace,
        signals: Optional[Iterable[str]] = None,
        scope: str = "polychrony",
        tick_duration: int = 1,
    ) -> str:
        """Render *trace* as VCD text.

        Event/boolean signals become 1-bit wires pulsed at their present
        instants; integer signals become 32-bit registers; everything else is
        emitted as real/string variables.  Absent instants return the wire to
        ``z`` so that the clock of each signal is visible in the waveform, as
        in the paper's co-simulation demonstrator.
        """
        names = list(signals) if signals is not None else trace.signals()
        buffer = io.StringIO()
        sink = StreamingVcdSink(
            buffer,
            timescale=self.timescale,
            date=self.date,
            scope=scope,
            tick_duration=tick_duration,
            shapes=shapes_from_trace(trace, names),
        )
        replay_trace(trace, sink, signals=names)
        return buffer.getvalue()

    def write(self, trace: SimulationTrace, path: str, **kwargs: object) -> str:
        """Render *trace* and write the text to *path*; returns *path*."""
        text = self.render(trace, **kwargs)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def parse_vcd(text: str) -> VcdDocument:
    """Parse VCD text produced by :class:`VcdWriter` (subset of IEEE 1364)."""
    timescale = "1 ms"
    variables: Dict[str, VcdVariable] = {}
    by_identifier: Dict[str, VcdVariable] = {}
    changes: Dict[int, Dict[str, str]] = {}
    current_time = 0
    in_definitions = True

    tokens = text.splitlines()
    i = 0
    while i < len(tokens):
        line = tokens[i].strip()
        i += 1
        if not line:
            continue
        if in_definitions:
            if line.startswith("$timescale"):
                timescale = line.replace("$timescale", "").replace("$end", "").strip()
            elif line.startswith("$var"):
                parts = line.split()
                # $var wire 1 ! name $end
                var_type, size, identifier, name = parts[1], int(parts[2]), parts[3], parts[4]
                var = VcdVariable(name, identifier, var_type, size)
                variables[name] = var
                by_identifier[identifier] = var
            elif line.startswith("$enddefinitions"):
                in_definitions = False
            continue
        if line.startswith("#"):
            current_time = int(line[1:])
            continue
        if line.startswith("$"):
            continue
        slot = changes.setdefault(current_time, {})
        if line[0] in "01xz":
            value, identifier = line[0], line[1:]
            slot[identifier] = value
        elif line[0] in "bB":
            value, identifier = line.split()
            slot[identifier] = value[1:]
        elif line[0] in "rR":
            value, identifier = line.split()
            slot[identifier] = value[1:]

    # Re-key changes by identifier; keep identifiers (names resolved on demand).
    return VcdDocument(timescale=timescale, variables=variables, changes=changes)


def write_vcd(trace: SimulationTrace, path: str, **kwargs: object) -> str:
    """Write *trace* to *path* as VCD (thin wrapper over the streaming sink)."""
    return VcdWriter().write(trace, path, **kwargs)


__all__ = [
    "StreamingVcdSink",
    "VariableShape",
    "VcdDocument",
    "VcdVariable",
    "VcdWriter",
    "parse_vcd",
    "shape_for_type",
    "shapes_from_trace",
    "write_vcd",
]
