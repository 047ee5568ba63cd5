"""Wall-clock self time per layer, measured from outside the program.

A :class:`LayerClock` keeps a stack of open layer frames.  Leaving a frame
adds its elapsed time minus the time of the wrapped calls nested inside it
to that layer's self time, so the self times of all layers sum to the wall
time spent under the outermost wrapped call.

:class:`Instrumentation` installs wrappers around public entry points of
the ``repro`` packages (and restores the originals on ``remove``).
Generator functions are timed per resumption: every ``send``/``throw`` into
the generator opens a frame, so a coroutine suspended on a simulated event
accrues no time while it waits.  Wrappers only observe: they never create
events or change what a call returns, so the simulation they time is the
one an uninstrumented run performs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer.  The first matching prefix wins.
LAYER_OF_MODULE: List[Tuple[str, str]] = [
    ("repro.sim", "sim"),
    ("repro.rpc.xdr", "rpc.xdr"),
    ("repro.rpc", "rpc"),
    ("repro.nfs.client", "nfs.client"),
    ("repro.nfs", "nfs.codec"),
    ("repro.net.checksum", "net.checksum"),
    ("repro.net", "net"),
    ("repro.core", "core"),
    ("repro.dirsvc", "dirsvc"),
    ("repro.wal", "wal"),
    ("repro.smallfile", "smallfile"),
    ("repro.storage.coordinator", "coord"),
    ("repro.storage.coordproto", "coord"),
    ("repro.storage", "storage"),
    ("repro.workloads", "driver"),
    ("repro.ensemble", "ensemble"),
    ("repro.util", "util"),
    ("perfbench", "driver"),
]


def layer_of_module(module: str) -> Optional[str]:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerClock:
    """Self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- wrappers ------------------------------------------------------------

    def timed_call(self, fn: Callable, layer: str, count: Optional[str] = None):
        """Wrap a plain function; ``count`` names the call counter."""
        enter, leave, calls = self.enter, self.exit, self.calls
        counter = count or layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[counter] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def timed_generator(self, gen, layer: str):
        """Generator: delegate to ``gen``, timing each resumption."""
        enter, leave = self.enter, self.exit
        value, error = None, None
        while True:
            enter(layer)
            try:
                if error is not None:
                    target = gen.throw(error)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    def timed_generator_function(self, fn: Callable, layer: str,
                                 count: Optional[str] = None):
        timed, calls = self.timed_generator, self.calls
        counter = count or layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return timed(fn(*args, **kwargs), layer)

        return wrapper

    def wrap(self, fn: Callable, layer: str, count: Optional[str] = None):
        if inspect.isgeneratorfunction(fn):
            return self.timed_generator_function(fn, layer, count)
        return self.timed_call(fn, layer, count)


def public_methods(cls) -> List[str]:
    """Names of the plain public functions defined on ``cls`` itself."""
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Instrumentation:
    """Installs layer timers on the program's entry points; reversible."""

    def __init__(self, clock: LayerClock):
        self.clock = clock
        self._saved: List[Tuple[object, str, object]] = []
        #: live objects created while installed, for counter snapshots
        self.rpc_clients: list = []
        self.rpc_servers: list = []
        #: simulated wait per resource class (seconds) and request counts
        self.resource_wait: Dict[str, float] = defaultdict(float)
        self.resource_kind: Dict[int, str] = {}
        self.checksum_bytes = 0

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, layer: str,
                    count: Optional[str] = None) -> None:
        self._set(cls, name, self.clock.wrap(vars(cls)[name], layer, count))

    def wrap_methods(self, cls, layer: str) -> None:
        for name in public_methods(cls):
            self.wrap_method(cls, name, layer)

    def wrap_module_function(self, module, name: str, layer: str,
                             wrapper=None) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, name)
        replacement = wrapper or self.clock.wrap(original, layer)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- the layer map ---------------------------------------------------------

    def install(self) -> None:
        from repro.core.uproxy import UProxy
        from repro.net import checksum as cks
        from repro.net.host import Host
        from repro.net.network import Network
        from repro.net.packet import Packet
        from repro.nfs import fhandle, proto, types
        from repro.nfs.client import NfsClient
        from repro.rpc import messages
        from repro.rpc.endpoint import RpcClient, RpcServer
        from repro.rpc.xdr import Decoder, Encoder
        from repro.sim.engine import Simulator
        from repro.sim.resources import Resource, Store
        from repro.wal.log import WriteAheadLog

        clock = self.clock
        # sim: the event loop and its queueing primitives.
        self.wrap_method(Simulator, "step", "sim", count="sim.steps")
        for name in ("timeout", "event", "any_of", "all_of"):
            self.wrap_method(Simulator, name, "sim")
        self._set(Simulator, "process", self._process_hook(
            vars(Simulator)["process"]))
        self._set(Resource, "request", self._request_hook(
            vars(Resource)["request"]))
        for name in ("release", "use"):
            self.wrap_method(Resource, name, "sim")
        self.wrap_methods(Store, "sim")
        # rpc: XDR, message headers, endpoints.
        self.wrap_methods(Encoder, "rpc.xdr")
        self.wrap_methods(Decoder, "rpc.xdr")
        for cls in (messages.CallHeader, messages.ReplyHeader):
            self.wrap_methods(cls, "rpc")
        self.wrap_method(RpcClient, "call", "rpc", count="rpc.calls")
        self._set(RpcClient, "__init__", self._track(
            vars(RpcClient)["__init__"], self.rpc_clients))
        self._set(RpcServer, "__init__", self._track(
            vars(RpcServer)["__init__"], self.rpc_servers))
        self._set(RpcServer, "register", self._register_hook(
            vars(RpcServer)["register"]))
        # nfs: protocol codecs and the client.
        for module in (proto, types, fhandle):
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(
                        value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    for meth in ("encode", "decode", "pack", "unpack"):
                        if isinstance(vars(value).get(meth), (
                                staticmethod, classmethod)):
                            self._wrap_descriptor(value, meth, "nfs.codec")
                        elif inspect.isfunction(vars(value).get(meth)):
                            self.wrap_method(value, meth, "nfs.codec")
                elif inspect.isfunction(value):
                    self.wrap_module_function(module, name, "nfs.codec")
        self.wrap_methods(NfsClient, "nfs.client")
        # net: checksums, packets, hosts, the switch.
        for name in ("checksum", "verify", "update_checksum"):
            self.wrap_module_function(cks, name, "net.checksum")
        timed_sum = clock.timed_call(cks.ones_sum, "net.checksum")

        def ones_sum(data):
            self.checksum_bytes += len(data)
            return timed_sum(data)

        self.wrap_module_function(cks, "ones_sum", "net.checksum",
                                  wrapper=ones_sum)
        for name in ("fill_checksum", "checksum_ok", "compute_checksum",
                     "rewrite_dst", "rewrite_src", "rewrite_header", "clone"):
            self.wrap_method(Packet, name, "net")
        for name in ("send", "deliver", "loopback"):
            self.wrap_method(Host, name, "net")
        self.wrap_method(Network, "transmit", "net")
        # core: the µproxy packet filter.
        self.wrap_method(UProxy, "outbound", "core")
        self.wrap_method(UProxy, "inbound", "core")
        # wal: group-commit log (its device I/O is a storage-layer call).
        for name in ("append", "sync", "append_sync", "checkpoint"):
            self.wrap_method(WriteAheadLog, name, "wal")

    def _wrap_descriptor(self, cls, name: str, layer: str) -> None:
        descriptor = vars(cls)[name]
        wrapped = self.clock.wrap(descriptor.__func__, layer)
        self._set(cls, name, type(descriptor)(wrapped))

    # -- hooks -------------------------------------------------------------------

    def _process_hook(self, original):
        """Time every simulated process under the layer defining its code."""
        timed, calls = self.clock.timed_generator, self.clock.calls
        enter, leave = self.clock.enter, self.clock.exit
        layer_cache: Dict[str, Optional[str]] = {}

        def process(sim, gen, name=""):
            calls["sim"] += 1
            enter("sim")
            try:
                code = getattr(gen, "gi_code", None)
                if code is not None:
                    module = code.co_filename
                    if module not in layer_cache:
                        layer_cache[module] = layer_of_module(
                            _module_of_file(module))
                    layer = layer_cache[module]
                    if layer is not None:
                        gen = timed(gen, layer)
                return original(sim, gen, name)
            finally:
                leave()

        return process

    def _register_hook(self, original):
        """Time RPC services under the layer of the object serving them."""
        timed = self.clock.timed_generator

        def register(server, prog, service):
            func = getattr(service, "__func__", service)
            layer = layer_of_module(getattr(func, "__module__", "") or "")
            if layer is None:
                return original(server, prog, service)

            def timed_service(*args):
                return timed(service(*args), layer)

            return original(server, prog, timed_service)

        return register

    def _request_hook(self, original):
        """Resource.request: time it, and add up how long grants waited."""
        clock = self.clock
        waits, kinds = self.resource_wait, self.resource_kind

        def request(resource):
            clock.enter("sim")
            try:
                req = original(resource)
                kind = kinds.get(id(resource), "other")
                if req.triggered:
                    return req  # granted at once: no wait
                asked = resource.sim.now

                def granted(_event):
                    waits[kind] += resource.sim.now - asked

                req.callbacks.append(granted)
                return req
            finally:
                clock.exit()

        return request

    @staticmethod
    def _track(init, registry: list):
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        return __init__

    def classify_resources(self, groups: Dict[str, list]) -> None:
        """Name the resource classes whose waits are summed separately."""
        for kind, resources in groups.items():
            for resource in resources:
                self.resource_kind[id(resource)] = kind


def _module_of_file(path: str) -> str:
    """Dotted module name for a source file of ``repro`` or the benchmark."""
    parts = path.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    # The innermost package directory wins, wherever the checkout lives.
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] in ("repro", "perfbench"):
            return ".".join(parts[index:])
    return ""
