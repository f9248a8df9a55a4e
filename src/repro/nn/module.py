"""Module / parameter containers for the numpy neural-network substrate."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .autograd import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Provides parameter registration/traversal, a train/eval flag and
    state-dict style (de)serialization of raw numpy weights.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradient management
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            values = np.asarray(values, dtype=np.float64)
            if own[name].data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {own[name].data.shape} vs {values.shape}"
                )
            own[name].data = values.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.add_module(name, module)
            self._order.append(name)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x


class ModuleList(Module):
    """List-like container whose entries are registered as submodules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._order: list[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not callable
        raise RuntimeError("ModuleList is a container and cannot be called directly")
