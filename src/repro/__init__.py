"""repro — a from-scratch reproduction of
"TCL: an ANN-to-SNN Conversion with Trainable Clipping Layers" (DAC 2021).

The package is organised bottom-up (the import order below mirrors the
layering — each module depends only on the ones before it):

* :mod:`repro.runtime` — compute policies (``train64`` / ``infer32``
  precision profiles), scratch-buffer pools and the dtype-audit harness,
* :mod:`repro.obs` — observability: the execution tracer (spans exported as
  Chrome trace-event JSON for Perfetto), the metrics registry, and the
  hooks every layer above reports into,
* :mod:`repro.autograd` — numpy reverse-mode autodiff (the PyTorch substitute),
* :mod:`repro.nn` — layers, containers, residual blocks,
* :mod:`repro.optim` — SGD / Adam and LR schedules,
* :mod:`repro.data` — synthetic CIFAR / ImageNet substitutes and loaders,
* :mod:`repro.models` — ConvNet4, VGG and ResNet architectures with TCL sites,
* :mod:`repro.training` — the ANN training harness,
* :mod:`repro.snn` — IF neurons, spiking layers, and the time-stepped
  simulator,
* :mod:`repro.core` — the paper's contribution as a small compiler: trainable
  clipping layers, norm-factor strategies, the graph IR + pass pipeline +
  lowering registry, and the fluent ``Converter`` driving them,
* :mod:`repro.serve` — the inference-serving subsystem: artifact store, model
  registry, adaptive early-exit engine, micro-batching server (`repro-serve`),
* :mod:`repro.analysis` — tables, ASCII plots and the experiment registry.

``docs/architecture.md`` walks the conversion lifecycle end to end;
``docs/api.md`` and ``docs/serving.md`` document the public surfaces.

Quickstart::

    from repro.core import ExperimentConfig, run_experiment
    from repro.analysis import render_table1

    result = run_experiment(ExperimentConfig(model="convnet4", dataset="cifar"))
    print(render_table1(result))

Converting a single trained model uses the fluent builder::

    from repro import Converter

    result = (
        Converter(model)
        .strategy("tcl")
        .precision("infer32")
        .calibrate(images)
        .convert()
    )
    result.snn.simulate(test_images, timesteps=200)
"""

from . import runtime, obs, autograd, nn, optim, data, models, training, snn, core, serve, analysis
from .core import (
    ConversionConfig,
    ConversionError,
    ConversionResult,
    Converter,
    convert_ann_to_snn,
    register_lowering,
)
from .runtime import ComputePolicy, active_policy, using_policy

__version__ = "1.4.0"

__all__ = [
    "runtime",
    "autograd",
    "nn",
    "optim",
    "data",
    "models",
    "training",
    "snn",
    "core",
    "serve",
    "analysis",
    "Converter",
    "ConversionConfig",
    "ConversionError",
    "ConversionResult",
    "convert_ann_to_snn",
    "register_lowering",
    "ComputePolicy",
    "active_policy",
    "using_policy",
    "__version__",
]
