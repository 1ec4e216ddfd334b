import itertools
import types

from layers import LayerTracer, Patches


def test_self_time_excludes_child_spans():
    ticks = itertools.count(0, 10)  # every clock read advances 10 ns
    tracer = LayerTracer(clock=lambda: next(ticks))
    tracer.enter("outer")       # t=0
    tracer.enter("inner")       # t=10
    tracer.exit()               # t=20 -> inner 10
    tracer.enter("inner")       # t=30
    tracer.exit()               # t=40 -> inner 10
    tracer.exit()               # t=50 -> outer 50 - 20 = 30
    assert tracer.self_ns == {"inner": 20, "outer": 30}
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_seconds("outer") == 30e-9


def test_patches_wrap_and_restore(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    class Thing:
        def work(self, n):
            return n * 2

    module.Thing = Thing
    monkeypatch.setitem(__import__("sys").modules, "fake_layer_module", module)
    tracer = LayerTracer()
    patches = Patches()
    patches.replace("fake_layer_module", "Thing.work",
                    lambda fn: tracer.wrap("thing", fn))
    assert Thing().work(4) == 8
    assert tracer.calls["thing"] == 1
    patches.restore()
    assert Thing().work(4) == 8
    assert tracer.calls["thing"] == 1


def test_only_the_tracing_thread_is_traced():
    import threading

    tracer = LayerTracer()
    traced = tracer.wrap("work", lambda: None)
    worker = threading.Thread(target=traced)
    worker.start()
    worker.join()
    assert tracer.calls == {}
    traced()
    assert tracer.calls == {"work": 1}


def test_dumps_add_up(tmp_path):
    from layers import load_dumps

    paths = []
    for i, ns in enumerate((1_000_000_000, 500_000_000)):
        tracer = LayerTracer()
        tracer.self_ns["cache.assoc"] = ns
        tracer.calls["cache.assoc"] = 2
        paths.append(tmp_path / f"job-{i}.json")
        tracer.dump(paths[-1])
    merged = load_dumps(paths)
    assert merged["layers_s"] == {"cache.assoc": 1.5}
    assert merged["layer_calls"] == {"cache.assoc": 4}
    tracer.reset()
    assert tracer.self_ns == {} and tracer.calls == {}
