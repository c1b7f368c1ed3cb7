"""Multi-task multi-gate mixture-of-experts vision model with two-stage
training (label-guided masked pretraining, then dual-gate multi-task
fine-tuning), on a small numpy autodiff engine."""

__version__ = "0.1.0"
