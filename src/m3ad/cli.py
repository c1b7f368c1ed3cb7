"""Command-line interface.

Subcommands: gen-data, pretrain, finetune, eval, gradcheck,
inspect-gates. Logs go to stderr, artifacts to files; exit codes are 0
on success, 1 for validation problems (bad flags, config, manifest,
checkpoint contents), 2 for unexpected runtime failures.

gen-data, pretrain and finetune accept ``--config FILE`` and repeated
``--set key=value`` overrides (overrides win), plus ``--seed`` which
overrides the configured seed. pretrain and finetune share one handler:
each writes ``<command>.m3ck`` (the best epoch) and ``<command>_log.csv``
(one row per epoch) under ``--out``; finetune may start from
``--init``. eval and inspect-gates take the model from ``--checkpoint``
and read no config. gen-data writes ``manifest.csv``, eval writes
``confusion_<task>.csv`` and ``metrics_<task>.csv`` per task, and
inspect-gates writes ``gates.csv``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import TRANSITIONS, RunConfig, apply_overrides, load_config
from .data import C3_NAMES, DIAG_NAMES, gen_synthetic, load_split, write_csv
from .errors import ContractError, M3adError
from .metrics import confusion, report
from .model import M3ADNet
from .moe import TASKS
from .train import (finetune_loop, load_checkpoint, model_from_checkpoint,
                    predict, pretrain_loop, save_checkpoint)

log = logging.getLogger("m3ad")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="m3ad", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def common(p, config=False, data=False, out=False, checkpoint=False):
        if config:
            p.add_argument("--config", help="config file of key = value lines")
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="KEY=VALUE", help="override one config key")
            p.add_argument("--seed", type=int, help="override the configured seed")
        if data:
            p.add_argument("--data", help="dataset manifest CSV")
        if out:
            p.add_argument("--out", help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file (.m3ck)")

    common(sub.add_parser("gen-data", help="generate a synthetic dataset"),
           config=True, out=True)
    common(sub.add_parser("pretrain", help="stage-1 masked pretraining"),
           config=True, data=True, out=True)
    p_ft = sub.add_parser("finetune", help="stage-2 dual-gate fine-tuning")
    common(p_ft, config=True, data=True, out=True)
    p_ft.add_argument("--init", help="pretrained checkpoint to start from")
    p_ev = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    common(p_ev, data=True, out=True, checkpoint=True)
    p_ev.add_argument("--split", default="test", help="manifest split to evaluate")
    sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_ig = sub.add_parser("inspect-gates", help="dump mean gate weights per layer")
    common(p_ig, data=True, out=True, checkpoint=True)
    p_ig.add_argument("--split", default="val", help="manifest split to inspect")
    return parser


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ContractError(f"--{name.replace('_', '-')} is required for this command")


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        load_config(args.config, cfg)
    apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg.train.seed = int(args.seed)
    return cfg.validate()


def _change_names(num_classes: int) -> list[str]:
    if num_classes == 3:
        return list(C3_NAMES)
    return [f"{src}-{dst}" for src, dst in TRANSITIONS]


def _cmd_gen_data(args) -> int:
    _require(args, "out")
    cfg = _load_run_config(args)
    manifest = gen_synthetic(args.out, seed=cfg.train.seed, n=cfg.data.n,
                             size=cfg.data.size, scheme=cfg.data.scheme,
                             fractions=cfg.data.fractions,
                             label_priors=cfg.data.label_priors)
    log.info("wrote %d samples, manifest %s", cfg.data.n, manifest)
    return 0


def _cmd_train(args) -> int:
    _require(args, "data", "out")
    cfg = _load_run_config(args)
    os.makedirs(args.out, exist_ok=True)
    train_ds = load_split(args.data, "train")
    val_ds = load_split(args.data, "val")
    init = load_checkpoint(args.init) if getattr(args, "init", None) else None
    model = M3ADNet(cfg.model, seed=cfg.train.seed)
    if args.command == "pretrain":
        ckpt, rows = pretrain_loop(model, train_ds, val_ds, cfg.train)
    else:
        ckpt, rows = finetune_loop(model, train_ds, val_ds, cfg.train, init=init)
    save_checkpoint(os.path.join(args.out, f"{args.command}.m3ck"), ckpt)
    write_csv(os.path.join(args.out, f"{args.command}_log.csv"), rows[0], map(dict.values, rows))
    log.info("%s done: best %s=%.5f at epoch %d", args.command,
             ckpt.best["metric"], ckpt.best["value"], ckpt.best["epoch"])
    return 0


def _cmd_eval(args) -> int:
    _require(args, "checkpoint", "data", "out")
    os.makedirs(args.out, exist_ok=True)
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.prior_stats is None:
        raise ContractError(
            "checkpoint carries no prior statistics; evaluate a fine-tuned checkpoint")
    model = model_from_checkpoint(ckpt)
    ds = load_split(args.data, args.split)
    num_change = model.cfg.num_change_classes
    if int(ds.change.max()) >= num_change:
        raise ContractError(
            f"split {args.split!r} holds change label {int(ds.change.max())} but the "
            f"checkpoint head has {num_change} classes")

    logits, _ = predict(model, ds, ckpt.prior_stats)
    accuracy = {}
    for task, labels, names in (("diagnosis", ds.diag, list(DIAG_NAMES)),
                                ("change", ds.change, _change_names(num_change))):
        cm = confusion(labels, logits[task].argmax(axis=1), len(names))
        rep = report(cm)
        write_csv(os.path.join(args.out, f"confusion_{task}.csv"), ["true", *names],
                  ([name, *counts] for name, counts in zip(names, cm.tolist())))
        # the report's fields in order; a per-class field gives one row per class
        rows = [[metric, *cell] for metric, value in vars(rep).items()
                for cell in ([("", value)] if isinstance(value, float) else zip(names, value))]
        write_csv(os.path.join(args.out, f"metrics_{task}.csv"), ["metric", "class", "value"], rows)
        accuracy[task] = rep.accuracy
    log.info("eval on %s: diagnosis acc %.4f, change acc %.4f", args.split,
             accuracy["diagnosis"], accuracy["change"])
    return 0


def _cmd_gradcheck(args) -> int:
    del args
    from .gradcheck import COMPOSITE_TOL, PRIMITIVE_TOL, run_battery

    primitives, composites = run_battery()
    ok = True
    for kind, errors, tol in (("primitive", primitives, PRIMITIVE_TOL),
                              ("composite", composites, COMPOSITE_TOL)):
        for name, err in errors.items():
            good = err < tol
            ok &= good
            print(f"{kind} {name:20s} max_rel_err {err:.3e} {'PASS' if good else 'FAIL'}")
    return 0 if ok else 1


def _cmd_inspect_gates(args) -> int:
    _require(args, "checkpoint", "data", "out")
    os.makedirs(args.out, exist_ok=True)
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    ds = load_split(args.data, args.split)
    _, gate_sums = predict(model, ds, ckpt.prior_stats)

    path = os.path.join(args.out, "gates.csv")
    write_csv(path, ["layer", "task", *(f"expert{e}" for e in range(model.cfg.num_experts))],
              ([layer, task, *(gate_sums[task][layer] / len(ds)).tolist()]
               for layer in range(len(model.blocks)) for task in TASKS))
    log.info("wrote %s", path)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "pretrain": _cmd_train,
    "finetune": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "inspect-gates": _cmd_inspect_gates,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse exits 2 after a usage error, 0 after --help
        return 1 if stop.code else 0
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (M3adError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command}: out of memory; try a smaller model, batch or image size",
              file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
