"""Module / Parameter abstraction (a small torch.nn.Module analogue).

Modules form a tree; parameters are discovered recursively by attribute
walking, so optimizers can be constructed with ``Adam(model.parameters())``
and L2 regularization can sum over ``model.parameters()``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; always requires grad.

    Unlike plain tensors, a parameter is always materialized in an explicit
    dtype — the module default unless overridden — so a model constructed
    under ``default_dtype("float32")`` is uniformly float32 even where its
    code builds weights from float64 numpy arrays (``np.zeros`` biases etc.).
    """

    def __init__(self, data, name: str | None = None, dtype=None):
        from repro.tensor.tensor import resolve_dtype

        super().__init__(data, requires_grad=True, name=name,
                         dtype=resolve_dtype(dtype))


class Module:
    """Base class for neural modules.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; :meth:`parameters` and :meth:`named_parameters` walk the
    resulting tree. ``training`` toggles dropout-style behaviour and is
    propagated by :meth:`train` / :meth:`eval`.
    """

    def __init__(self):
        self.training: bool = True

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, element in enumerate(value):
                    if isinstance(element, Parameter):
                        yield f"{name}.{i}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{name}.{i}.")
            elif isinstance(value, dict):
                for key, element in value.items():
                    if isinstance(element, Parameter):
                        yield f"{name}.{key}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{name}.{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield from element.modules()
            elif isinstance(value, dict):
                for element in value.values():
                    if isinstance(element, Module):
                        yield from element.modules()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        # keep each parameter's dtype (a float32 model stays float32), and
        # check every shape before the first parameter changes
        arrays = {name: np.asarray(state[name], dtype=p.data.dtype) for name, p in own.items()}
        for name, p in own.items():
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arrays[name].shape} vs {p.data.shape}")
        for name, p in own.items():
            p.data = arrays[name].copy()

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules that registers its children for parameter walks."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items: list[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def __len__(self) -> int:
        return len(self.items)

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")
