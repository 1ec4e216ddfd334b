"""The simulation-correctness rule set (REP001–REP013, REP017–REP020).

Every rule here guards a way a simulation codebase silently loses
determinism or fidelity: hidden global RNG state, float round-trip
comparisons, hash-order-dependent output, wall-clock reads inside
modeled time, cache geometry drifting away from the paper's
Table I/III definitions, and reductions that depend on worker
completion order.  Each rule yields ``(node, message)`` pairs;
see DESIGN.md ("Static analysis") for the hazard each one maps to.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.registry import rule

__all__ = [
    "CLOCK_MODULES", "ENTROPY_CALLS", "GEOMETRY_MODULES",
    "MONOTONIC_CLOCK_CALLS", "NUMPY_GLOBAL_RNG_FNS", "RETRY_SLEEP_MODULES",
    "STDLIB_GLOBAL_RNG_FNS", "WALL_CLOCK_CALLS",
]

Yield = Iterator[Tuple[ast.AST, str]]

#: numpy.random module-level functions that mutate hidden global state.
NUMPY_GLOBAL_RNG_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "lognormal", "multinomial", "normal",
    "permutation", "poisson", "rand", "randint", "randn", "random",
    "random_integers", "random_sample", "ranf", "sample", "seed",
    "set_state", "shuffle", "standard_normal", "uniform", "zipf",
})

#: stdlib ``random`` module-level functions backed by one shared Random().
STDLIB_GLOBAL_RNG_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "getstate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Host entropy no seed controls (REP001); every ``secrets.*`` call too.
ENTROPY_CALLS = frozenset({
    "os.getrandom", "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: Wall-clock reads that leak host time into simulated results.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Constructors whose numeric arguments are machine geometry (REP010).
_GEOMETRY_CONSTRUCTORS = frozenset({
    "CacheConfig", "CacheHierarchyConfig", "CoreConfig", "SystemConfig",
})


def _call_name(ctx, node: ast.Call) -> Optional[str]:
    return ctx.resolve(node.func)


def _has_seed_argument(node: ast.Call) -> bool:
    """True when a constructor-style RNG call passes a non-None seed."""
    for arg in node.args[:1]:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for keyword in node.keywords:
        if keyword.arg == "seed" and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return True
    return False


@rule(
    "REP001",
    "unseeded-rng",
    hazard=(
        "RNG state not derived from an explicit seed, or host entropy "
        "(os.urandom, uuid1/uuid4, secrets), makes traces, clusterings, "
        "and simpoint selections unreproducible between runs."
    ),
)
def check_unseeded_rng(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(ctx, node)
        if name is None:
            continue
        if name in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not _has_seed_argument(node):
                yield node, (
                    f"{name.rsplit('.', 1)[1]}() without an explicit seed; "
                    "pass a seed derived from the workload/slice identity"
                )
        elif name == "random.Random":
            if not _has_seed_argument(node):
                yield node, (
                    "random.Random() without an explicit seed; pass a seed "
                    "derived from the workload/slice identity"
                )
        elif name.startswith("numpy.random."):
            if name.rsplit(".", 1)[1] in NUMPY_GLOBAL_RNG_FNS:
                yield node, (
                    f"{name} uses numpy's hidden global RNG state; use a "
                    "seeded numpy.random.default_rng(seed) generator instead"
                )
        elif name.startswith("random."):
            if name.rsplit(".", 1)[1] in STDLIB_GLOBAL_RNG_FNS:
                yield node, (
                    f"{name} uses the shared module-level Random instance; "
                    "use a seeded random.Random(seed) (or numpy Generator)"
                )
        elif name in ENTROPY_CALLS or name.startswith("secrets."):
            yield node, (
                f"{name}() draws host entropy that no seed controls; derive "
                "the value from the workload/slice identity"
            )


_EXACT_FLOAT_SENTINELS = frozenset({"math.inf", "math.nan", "numpy.inf", "numpy.nan"})


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_whitelisted_float_guard(ctx, node: ast.AST) -> bool:
    """Exact-representable sentinels where ``==`` is intentional.

    ``float("inf")`` / ``math.inf`` style sentinels compare exactly, so
    equality against them is a legitimate guard idiom, not a rounding
    hazard.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_whitelisted_float_guard(ctx, node.operand)
    if isinstance(node, ast.Call):
        name = ctx.resolve(node.func)
        if name == "float" and len(node.args) == 1:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    resolved = ctx.resolve(node)
    return resolved in _EXACT_FLOAT_SENTINELS


@rule(
    "REP002",
    "float-equality",
    hazard=(
        "== / != on floats makes control flow depend on rounding noise; "
        "one ulp of drift silently changes which branch a simulation takes."
    ),
)
def check_float_equality(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if not (_is_float_literal(left) or _is_float_literal(right)):
                continue
            if _is_whitelisted_float_guard(ctx, left) or _is_whitelisted_float_guard(
                ctx, right
            ):
                continue
            yield node, (
                "float literal compared with ==/!=; use an explicit "
                "inequality guard or math.isclose, or suppress with a "
                "justifying comment if the value is exact by construction"
            )


def _is_set_expression(ctx, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


#: Builtins whose value is a per-process hash or an object address.
_PROCESS_IDENTITY_BUILTINS = frozenset({
    "builtins.hash", "builtins.id", "hash", "id",
})


@rule(
    "REP003",
    "unordered-iteration",
    hazard=(
        "iterating a set, or calling hash()/id(), feeds hash order "
        "(randomized per process for strings) or object addresses into "
        "downstream output; ordered results silently differ between runs."
    ),
)
def check_unordered_iteration(ctx) -> Yield:
    message = (
        "iteration over a set is hash-ordered; wrap it in sorted() before "
        "it feeds ordered output"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expression(ctx, node.iter):
                yield node, message
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expression(ctx, generator.iter):
                    yield node, message
        elif isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            if name in _PROCESS_IDENTITY_BUILTINS:
                yield node, (
                    f"{name.rsplit('.', 1)[-1]}() differs between processes "
                    "(string hash randomization, object addresses); key on "
                    "content instead, e.g. a hashlib digest or a sort key"
                )
            is_join = (
                isinstance(node.func, ast.Attribute) and node.func.attr == "join"
            )
            if name in ("list", "tuple", "enumerate") or is_join:
                for arg in node.args[:1]:
                    if _is_set_expression(ctx, arg):
                        yield node, message


@rule(
    "REP004",
    "wall-clock",
    hazard=(
        "wall-clock reads tie simulated behaviour to the host's clock; "
        "modeled time must come from the timing model, and timestamps in "
        "artifacts must be injected by the caller."
    ),
)
def check_wall_clock(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(ctx, node)
        if name in WALL_CLOCK_CALLS:
            yield node, (
                f"{name}() reads the host wall clock inside simulation "
                "code; inject timestamps from the caller or use modeled time"
            )


_MUTABLE_CONSTRUCTORS = frozenset({
    "bytearray", "collections.OrderedDict", "collections.defaultdict",
    "collections.deque", "dict", "list", "set",
})


def _is_mutable_default(ctx, node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in _MUTABLE_CONSTRUCTORS
    return False


@rule(
    "REP005",
    "mutable-default",
    hazard=(
        "a mutable default argument is shared across calls, so one run's "
        "state leaks into the next — results then depend on call history."
    ),
)
def check_mutable_default(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is not None and _is_mutable_default(ctx, default):
                yield default, (
                    "mutable default argument is shared between calls; "
                    "default to None and construct inside the function"
                )


_BROAD_EXCEPTIONS = frozenset({"BaseException", "Exception"})


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _broad_names(ctx, node: Optional[ast.AST]):
    if node is None:
        return ["<bare>"]
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        resolved = ctx.resolve(expr)
        if resolved in _BROAD_EXCEPTIONS:
            names.append(resolved)
    return names


@rule(
    "REP006",
    "swallowed-exception",
    hazard=(
        "a bare/broad except swallows ReproError (and with it replay "
        "divergence and config validation failures), turning hard "
        "correctness signals into silently wrong numbers."
    ),
)
def check_swallowed_exception(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_names(ctx, node.type)
        if not broad:
            continue
        if node.type is not None and _handler_reraises(node):
            continue
        label = "bare except" if broad == ["<bare>"] else f"except {broad[0]}"
        yield node, (
            f"{label} swallows ReproError; catch the specific exceptions "
            "expected here, or re-raise"
        )


def _is_dataclass_decorator(ctx, node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return ctx.resolve(target) in ("dataclass", "dataclasses.dataclass")


@rule(
    "REP007",
    "unvalidated-config",
    hazard=(
        "config dataclasses without __post_init__ validation let impossible "
        "machine geometry (zero-way caches, inverted hierarchies) flow into "
        "simulators that then produce plausible-looking garbage."
    ),
)
def check_unvalidated_config(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Config") or node.name.startswith("_"):
            continue
        if not any(_is_dataclass_decorator(ctx, d) for d in node.decorator_list):
            continue
        has_fields = any(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        has_post_init = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__post_init__"
            for stmt in node.body
        )
        if has_fields and not has_post_init:
            yield node, (
                f"config dataclass {node.name} has no __post_init__ "
                "validation; validate field invariants on construction"
            )


def _module_defines_all(tree: ast.Module) -> bool:
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
    return False


@rule(
    "REP008",
    "missing-all",
    hazard=(
        "without __all__, the public surface of a package is whatever "
        "happens to be importable — wildcard imports and API docs then "
        "drift as internals move."
    ),
)
def check_missing_all(ctx) -> Yield:
    if ctx.is_package_init and not _module_defines_all(ctx.tree):
        yield ctx.tree, (
            "public module defines no __all__; declare the exported names "
            "explicitly"
        )


def _inside_test_path(rel_path: str) -> bool:
    parts = rel_path.split("/")
    return any(p in ("tests", "test") or p.startswith("test_") for p in parts)


@rule(
    "REP009",
    "assert-validation",
    hazard=(
        "assert statements vanish under python -O, so input validation "
        "guarded by assert silently stops running in optimized deployments."
    ),
)
def check_assert_validation(ctx) -> Yield:
    if _inside_test_path(ctx.rel_path):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield node, (
                "assert used outside tests; raise ConfigError/SimulationError "
                "(asserts disappear under python -O)"
            )


def _is_numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_numeric_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_numeric_literal(node.left) and _is_numeric_literal(node.right)
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


#: Modules allowed to define cache-geometry literals (REP010): the
#: Table I / Table III presets.
GEOMETRY_MODULES = ("repro/config.py",)


@rule(
    "REP010",
    "magic-geometry",
    hazard=(
        "cache/core geometry literals scattered outside repro.config drift "
        "away from the paper's Table I / Table III machines, so experiments "
        "quietly stop simulating the machine the text describes."
    ),
)
def check_magic_geometry(ctx) -> Yield:
    if ctx.rel_path.endswith(GEOMETRY_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(ctx, node)
        if name is None or name.rsplit(".", 1)[-1] not in _GEOMETRY_CONSTRUCTORS:
            continue
        literal_args = [a for a in node.args if _is_numeric_literal(a)]
        literal_kwargs = [
            k.arg for k in node.keywords
            if k.arg is not None and _is_numeric_literal(k.value)
        ]
        if literal_args or literal_kwargs:
            detail = ", ".join(literal_kwargs) or "positional geometry"
            yield node, (
                f"{name.rsplit('.', 1)[-1]} built from numeric literals "
                f"({detail}); derive from repro.config presets "
                "(dataclasses.replace / .scaled()) so geometry stays in one place"
            )


#: Iterables whose element order follows worker *completion*, not
#: submission — nondeterministic under load (REP011).
_UNORDERED_COMPLETION_CALLS = frozenset({"concurrent.futures.as_completed"})
_UNORDERED_COMPLETION_METHODS = frozenset({"as_completed", "imap_unordered"})

#: Accumulator methods whose result depends on call order.  ``add`` /
#: ``update`` on sets and dict-key stores are deliberately absent: they
#: produce the same container for any arrival order.
_ORDER_SENSITIVE_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "write", "writelines",
})


def _is_unordered_completion(ctx, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if _call_name(ctx, node) in _UNORDERED_COMPLETION_CALLS:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _UNORDERED_COMPLETION_METHODS
    )


def _order_sensitive_reduction(loop: ast.For) -> Optional[ast.AST]:
    """First statement in the loop body whose effect is order-dependent."""
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.AugAssign, ast.Yield, ast.YieldFrom)):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_SENSITIVE_METHODS
            ):
                return node
    return None


@rule(
    "REP011",
    "completion-order-reduction",
    hazard=(
        "as_completed()/imap_unordered() yield results in worker "
        "completion order, which varies with machine load; appending or "
        "summing in that order makes parallel output differ run-to-run "
        "and diverge from the serial reference."
    ),
)
def check_completion_order_reduction(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            if not _is_unordered_completion(ctx, node.iter):
                continue
            sink = _order_sensitive_reduction(node)
            if sink is not None:
                yield sink, (
                    "order-dependent reduction over completion-ordered "
                    "results; key results by their submitted item (e.g. "
                    "results[futures[f]] = f.result()) or iterate futures "
                    "in submission order"
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # Set/dict comprehensions are order-insensitive sinks.
            for generator in node.generators:
                if _is_unordered_completion(ctx, generator.iter):
                    yield node, (
                        "sequence built in completion order; collect "
                        "futures in a list and take future.result() in "
                        "submission order instead"
                    )


#: Monotonic/CPU clock reads that must route through the telemetry clock.
MONOTONIC_CLOCK_CALLS = frozenset({
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
})

#: Every host-clock read REP012 fences off (wall + monotonic families).
_RAW_CLOCK_CALLS = WALL_CLOCK_CALLS | MONOTONIC_CLOCK_CALLS

#: Modules allowed to read host clocks directly (REP012): the telemetry
#: clock, which every other module takes its time from.
CLOCK_MODULES = ("repro/telemetry/clock.py",)


@rule(
    "REP012",
    "raw-clock",
    hazard=(
        "host-clock reads scattered through library code bypass the "
        "telemetry clock module, so spans cannot be made deterministic "
        "under a fake clock and timing concerns leak into simulation "
        "logic; route all clock reads through repro.telemetry.clock."
    ),
)
def check_raw_clock(ctx) -> Yield:
    if _inside_test_path(ctx.rel_path):
        return
    if ctx.rel_path.endswith(CLOCK_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(ctx, node)
        if name in _RAW_CLOCK_CALLS:
            yield node, (
                f"{name}() reads a host clock outside "
                "repro.telemetry.clock; use monotonic_ns()/wall_time_s() "
                "from the telemetry clock module instead"
            )


#: Functions whose call fans work out to pool workers (REP013).
_DISPATCH_FUNCTIONS = frozenset({
    "parallel_map", "map_benchmarks", "map_items", "as_completed",
})

#: Future/executor methods on the worker dispatch and harvest path.
_DISPATCH_METHODS = frozenset({"submit", "result"})


def _dispatch_call(ctx, try_node: ast.Try) -> Optional[ast.AST]:
    """First worker-dispatch call in the try body, if any."""
    for stmt in try_node.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(ctx, node)
            if name is not None and name.rsplit(".", 1)[-1] in _DISPATCH_FUNCTIONS:
                return node
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_METHODS
            ):
                return node
    return None


@rule(
    "REP013",
    "bare-except-dispatch",
    hazard=(
        "a bare except around worker dispatch swallows every failure "
        "the runner raises — a failed item's own exception, injected "
        "faults, a broken pool, KeyboardInterrupt — so a run with a "
        "crashed item is silently reported as complete."
    ),
)
def check_bare_except_dispatch(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        if _dispatch_call(ctx, node) is None:
            continue
        for handler in node.handlers:
            if handler.type is None and not _handler_reraises(handler):
                yield handler, (
                    "bare except around worker dispatch; catch the "
                    "specific failures, or re-raise"
                )


#: Calls whose failure must surface: worker dispatch/harvest (REP013's
#: own sets, so the two rules cannot drift apart) and journal appends
#: (REP017).
_REP017_FUNCTIONS = _DISPATCH_FUNCTIONS
_REP017_METHODS = _DISPATCH_METHODS


@rule(
    "REP017",
    "swallowed-failure",
    hazard=(
        "an exception handler around worker dispatch or journal writes "
        "that neither re-raises nor reads the error turns a failed "
        "measurement into a silent gap: the run reports success while "
        "the sampled data is incomplete."
    ),
)
def check_swallowed_failure(ctx) -> Yield:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        sink = _rep017_sink(ctx, node)
        if sink is None:
            continue
        for handler in node.handlers:
            if _handler_surfaces_error(handler):
                continue
            yield handler, (
                f"exception handler around {sink} swallows the failure: "
                "it neither re-raises nor uses the bound exception -- "
                "failed work becomes a silent gap in the results"
            )


def _rep017_sink(ctx, try_node: ast.Try) -> Optional[str]:
    """Label of the first guarded dispatch/journal call, if any."""
    for stmt in try_node.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _REP017_METHODS:
                    return f".{func.attr}()"
                if func.attr == "append" and isinstance(func.value, ast.Name) and (
                    "journal" in func.value.id.lower()
                ):
                    return f"{func.value.id}.append()"
            name = _call_name(ctx, node)
            if name is not None and name.rsplit(".", 1)[-1] in _REP017_FUNCTIONS:
                return f"{name.rsplit('.', 1)[-1]}()"
    return None


def _handler_surfaces_error(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or uses the bound exception."""
    if _handler_reraises(handler):
        return True
    return bool(handler.name) and any(
        isinstance(node, ast.Name)
        and node.id == handler.name
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(handler)
    )


#: Synchronous sleeps that stall an event loop (REP018).
_BLOCKING_SLEEP_CALLS = frozenset({"time.sleep"})
_BLOCKING_SLEEP_BASENAMES = frozenset({"sleep_s"})

#: subprocess entry points that block until the child exits.
_BLOCKING_SUBPROCESS_CALLS = frozenset({
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
})

#: Socket/IO methods that block without a guaranteed timeout.
_BLOCKING_SOCKET_METHODS = frozenset({
    "recv", "recv_into", "recvfrom", "recvfrom_into", "accept", "sendall",
})


def _async_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Call nodes executed *on the event loop* of one async def.

    Nested ``def``/``async def`` bodies are skipped: a nested sync
    function runs wherever it is eventually called (often a worker
    thread or child process), and a nested async def is visited as its
    own function by the rule's outer walk.
    """
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@rule(
    "REP018",
    "blocking-call-in-async",
    hazard=(
        "a synchronous sleep, an un-timed socket read, a bare "
        "future.result(), or a blocking subprocess call inside an async "
        "function stalls the whole event loop: the campaign server "
        "stops accepting submissions, watch streams freeze, and the "
        "scheduler misses its tick — a single slow peer becomes a "
        "service-wide hang."
    ),
)
def check_blocking_call_in_async(ctx) -> Yield:
    for func in ast.walk(ctx.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _async_calls(func):
            name = _call_name(ctx, node)
            basename = name.rsplit(".", 1)[-1] if name else None
            if name in _BLOCKING_SLEEP_CALLS or (
                basename in _BLOCKING_SLEEP_BASENAMES
            ):
                yield node, (
                    f"{basename}() blocks the event loop inside async "
                    f"def {func.name}; await asyncio.sleep() instead"
                )
                continue
            if name in _BLOCKING_SUBPROCESS_CALLS:
                yield node, (
                    f"{name}() blocks the event loop inside async def "
                    f"{func.name}; use asyncio.create_subprocess_exec() "
                    "or run it in a worker"
                )
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr in _BLOCKING_SOCKET_METHODS:
                yield node, (
                    f".{attr}() is a blocking socket call with no "
                    f"timeout guard inside async def {func.name}; use "
                    "the asyncio stream APIs (or wrap in "
                    "asyncio.wait_for)"
                )
            elif attr == "result" and not node.args and not node.keywords:
                yield node, (
                    f".result() with no timeout blocks the event loop "
                    f"inside async def {func.name}; await the future "
                    "instead"
                )


#: RNG constructors banned inside ``@sampler`` bodies (REP019): even a
#: *seeded* private generator breaks the registry's reproducibility
#: story, because the seed no longer flows from the benchmark identity
#: through the sampler context.
_SAMPLER_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "random.Random", "random.SystemRandom",
})


def _is_sampler_decorator(ctx, decorator: ast.AST) -> bool:
    """True for ``@sampler(...)`` / ``@sampler`` in any import spelling."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = ctx.resolve(target)
    return name is not None and name.rsplit(".", 1)[-1] == "sampler"


def _sampler_functions(ctx) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _is_sampler_decorator(ctx, d) for d in node.decorator_list
        ):
            yield node


@rule(
    "REP019",
    "sampler-private-rng",
    hazard=(
        "a sampler that reads global RNG state or builds its own "
        "generator escapes the registry's seeding discipline: two runs "
        "with the same benchmark seed pick different slices, cached "
        "results stop matching fresh ones, and the accuracy/cost "
        "frontier is no longer reproducible.  All randomness inside a "
        "@sampler body must come from the seeded Generator in the "
        "sampler context (ctx.rng)."
    ),
)
def check_sampler_private_rng(ctx) -> Yield:
    for func in _sampler_functions(ctx):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(ctx, node)
            if name is None:
                continue
            basename = name.rsplit(".", 1)[-1]
            if name in _SAMPLER_RNG_CONSTRUCTORS:
                yield node, (
                    f"{name}() inside sampler {func.name!r}: do not "
                    "construct a private generator (seeded or not); "
                    "draw from the sampler context's ctx.rng"
                )
            elif (
                name.startswith("numpy.random.")
                and basename in NUMPY_GLOBAL_RNG_FNS
            ):
                yield node, (
                    f"{name} inside sampler {func.name!r} reads numpy's "
                    "hidden global RNG state; draw from the sampler "
                    "context's ctx.rng"
                )
            elif (
                name.startswith("random.")
                and basename in STDLIB_GLOBAL_RNG_FNS
            ):
                yield node, (
                    f"{name} inside sampler {func.name!r} reads the "
                    "shared module-level Random instance; draw from the "
                    "sampler context's ctx.rng"
                )


def _loop_contains_try(loop: ast.AST) -> bool:
    """Whether a for/while body contains a try with handlers (a retry
    shape), not counting nested function definitions."""
    stack = list(ast.iter_child_nodes(loop))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Try) and node.handlers:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


#: Modules allowed to sleep inside retry loops directly (REP020): the
#: home of the sanctioned ``backoff_sleep`` helper itself.
RETRY_SLEEP_MODULES = ("repro/resilience/policy.py",)


@rule(
    "REP020",
    "ad-hoc-retry-sleep",
    hazard=(
        "a hand-rolled sleep inside a retry loop (a loop that also "
        "catches exceptions) invents its own backoff schedule: "
        "un-seeded, un-bounded, invisible to tests, and different from "
        "every other retry in the system.  Route the wait through "
        "repro.resilience.policy.backoff_sleep, which derives a "
        "deterministic bounded delay from a Retry policy."
    ),
)
def check_ad_hoc_retry_sleep(ctx) -> Yield:
    if _inside_test_path(ctx.rel_path):
        return
    if ctx.rel_path.endswith(RETRY_SLEEP_MODULES):
        return
    seen = set()
    for loop in ast.walk(ctx.tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        if not _loop_contains_try(loop):
            continue
        stack = list(ast.iter_child_nodes(loop))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call) or node in seen:
                continue
            name = _call_name(ctx, node)
            basename = name.rsplit(".", 1)[-1] if name else None
            if name in _BLOCKING_SLEEP_CALLS or (
                basename in _BLOCKING_SLEEP_BASENAMES
            ):
                seen.add(node)
                yield node, (
                    f"{basename}() inside a retry loop is an ad-hoc "
                    "backoff; use backoff_sleep(retry, index, attempt) "
                    "from repro.resilience.policy for the shared "
                    "deterministic schedule"
                )
