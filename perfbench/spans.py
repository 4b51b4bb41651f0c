"""Span recorder that times armcal's public functions from outside.

Tracer.install() replaces every public function of every armcal module with
a wrapper that records one span (name, parent, start, end), wherever the
program binds the function's name: `from .plant import step` in tpo makes a
second binding that patching armcal.plant alone would miss. The closures that
identify.make_replay_energy and identify.make_one_step_residuals return are
wrapped as identify.replay_energy and identify.lm_residuals. Spans are kept
in flat arrays in memory and written out once, by save().
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("_kernel_py", "backend", "plant", "datagen", "serialize",
           "identify", "surrogate", "tpo", "cli")
# The layer a module belongs to: the kernel and its selector are the plant's.
LAYER = {"_kernel_py": "plant", "backend": "plant"}
# Called once per row or per number while the dataset is written; a span
# would cost more than the body, so their time stays in write_dataset's.
UNWRAPPED = {"serialize.f17", "serialize.dataset_line"}
# Functions whose return value is itself a function worth a span.
RETURNS_FN = {"identify.make_replay_energy": "identify.replay_energy",
              "identify.make_one_step_residuals": "identify.lm_residuals"}


def layer_of(name):
    module = name.split(".", 1)[0]
    return LAYER.get(module, module)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._originals = []  # (module, attribute, original)

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, keep=None):
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        make_fn = RETURNS_FN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if make_fn is not None:
                out = self.wrap(make_fn, out)
            if keep is not None:
                keep(out)
            return out

        return wrapper

    def install(self, keep=None):
        """Wrap the public functions of every armcal module at every binding.

        keep maps a span name to a callback that receives each return value.
        """
        import armcal
        mods = {m: importlib.import_module(f"armcal.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrapped[obj] = self.wrap(name, obj, (keep or {}).get(name))
        for mod in [armcal, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy())

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start_ns=start, end_ns=end)

    def summary(self, command_prefix="command:"):
        """Per span name: calls, inclusive and self seconds. Per command span
        (a name starting with command_prefix): its wall time and the share
        of it that spans of layers below cli cover."""
        name_id, parent, start, end = self.arrays()
        dur = (end - start).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=own, minlength=len(self.names))
        per_name = {n: {"calls": int(calls[i]), "s": float(incl[i]),
                        "self_s": float(self_s[i])}
                    for i, n in enumerate(self.names)}
        commands = []
        is_cli = np.array([n.startswith("cli.") or n.startswith(command_prefix)
                           for n in self.names])
        for idx in np.flatnonzero(~has_parent):
            label = self.names[name_id[idx]]
            if not label.startswith(command_prefix):
                continue
            # spans inside this command: those that start within it
            inside = (start >= start[idx]) & (end <= end[idx])
            cli_self = float(np.sum(own[inside & is_cli[name_id]]))
            commands.append({"command": label[len(command_prefix):],
                             "wall_s": float(dur[idx]),
                             "coverage": 1.0 - cli_self / float(dur[idx])})
        return per_name, commands
