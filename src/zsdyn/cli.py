"""Command-line entry point.

Subcommands: matrix-run, sg-run, sweep for experiments; oracle for the
exact solvers. Global flags come before the subcommand:

    zsdyn --seed 7 matrix-run --game builtin:mp --config run.json --out out/

--seed overrides the config's base_seed, --stride the run template's
record_stride, --force allows overwriting an existing output directory,
--quiet silences progress lines. A flag the command would ignore is an
error: --seed, --stride, --force and --quiet with oracle, --tol with a
matrix ng.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ZsdynError
from .games import JointPolicy, MatrixGame, load_game, validate_joint_policy
from .harness import ExperimentConfig, run_experiment
from .metrics import nash_distribution, nash_gap_matrix, nash_gap_stochastic, \
    regularized_nash_gap
from .ops import matrix_game_value, minimax_fixed_point


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ZsdynError(f"{path} is not valid JSON: {exc}") from None


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_policy(path: str, game) -> JointPolicy:
    d = _read_json(path)
    if not isinstance(d, dict) or "pi1" not in d or "pi2" not in d:
        raise ZsdynError(f"policy file {path} must carry pi1 and pi2")
    return validate_joint_policy(d["pi1"], d["pi2"], game)


_RUN_KINDS = {"matrix-run": "matrix", "sg-run": "stochastic"}


def _cmd_experiment(args) -> int:
    # matrix-run and sg-run take kind, game and out_dir from the command
    # line; sweep reads a full experiment config. Both then share one path.
    d = _read_json(args.config)
    if not isinstance(d, dict):
        raise ZsdynError(f"config file {args.config} must hold a JSON object")
    if args.command in _RUN_KINDS:
        if "kind" in d or "game" in d or "out_dir" in d:
            raise ZsdynError(
                f"{args.command} config file carries only run/n_trajectories/"
                "base_seed/sweep/sweep_cap; game and output come from the "
                "command line")
        d.update(kind=_RUN_KINDS[args.command], game=args.game, out_dir=args.out)
        d.setdefault("n_trajectories", 1)
    elif args.out is not None:
        d["out_dir"] = args.out
    if args.seed is not None:
        d["base_seed"] = args.seed
    if args.stride is not None:
        run = d.setdefault("run", {})
        if isinstance(run, dict):  # from_dict rejects any other run below
            run["record_stride"] = args.stride
    config = ExperimentConfig.from_dict(d)
    if config.out_dir is None:
        raise ZsdynError("no output directory: set out_dir in the config or pass --out")
    bundle = run_experiment(config, force=args.force, quiet=args.quiet)
    if not args.quiet:
        print(f"wrote {len(bundle.points)} sweep point(s) to {bundle.out_dir}")
    return 0


def _cmd_oracle(args) -> int:
    ignored = [flag for flag, given in (("--seed", args.seed is not None),
                                        ("--stride", args.stride is not None),
                                        ("--force", args.force),
                                        ("--quiet", args.quiet)) if given]
    if ignored:
        raise ZsdynError(f"oracle does not take the experiment flags {', '.join(ignored)}")
    game = load_game(args.game)
    if args.oracle_op == "value":
        if isinstance(game, MatrixGame):
            value = matrix_game_value(game.R1)
            _print_json({"value": value.value,
                         "maximin": value.maximin.tolist(),
                         "minimax": value.minimax.tolist()})
        else:
            v1 = minimax_fixed_point(game, 1)  # zero-sum: v2 = -v1
            _print_json({"v1": v1.tolist(), "v2": (-v1).tolist()})
        return 0
    if args.oracle_op == "ng":
        joint = _load_policy(args.policy, game)
        if isinstance(game, MatrixGame):
            if args.tol is not None:
                raise ZsdynError("--tol applies to a stochastic game; a matrix ng is exact")
            _print_json({"ng": nash_gap_matrix(game, joint)})
        else:
            tol = 1e-6 if args.tol is None else args.tol
            _print_json({"ng": nash_gap_stochastic(game, joint, tol=tol)})
        return 0
    if args.oracle_op == "ngtau":
        if not isinstance(game, MatrixGame):
            raise ZsdynError("ngtau is defined for matrix games")
        joint = _load_policy(args.policy, game)
        _print_json({"ngtau": regularized_nash_gap(game, joint, args.tau)})
        return 0
    # nashdist
    if not isinstance(game, MatrixGame):
        raise ZsdynError("nashdist is defined for matrix games")
    nd = nash_distribution(game, args.tau, tol=args.tol, damping=args.damping,
                           max_iters=args.max_iters)
    _print_json({"pi1": nd.joint.pi1.tolist(),
                 "pi2": nd.joint.pi2.tolist(),
                 "residual": nd.residual})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsdyn",
        description="Independent learning dynamics and exact oracles for "
                    "two-player zero-sum games")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the experiment base seed")
    parser.add_argument("--stride", type=int, default=None, metavar="INT",
                        help="override the run template's record_stride")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix-run", help="run the matrix-game dynamics")
    p.add_argument("--game", required=True,
                   help="game file, builtin:mp, builtin:rps, or builtin:appF:N=<int>")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sg-run", help="run the stochastic-game dynamics")
    p.add_argument("--game", required=True, help="stochastic game file")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("oracle", help="exact solvers")
    orc = p.add_subparsers(dest="oracle_op", required=True)
    ov = orc.add_parser("value", help="game value and optimal strategies")
    ov.add_argument("--game", required=True)
    for name, needs_tau in (("ng", False), ("ngtau", True)):
        o = orc.add_parser(name, help=f"{name} of a joint policy")
        o.add_argument("--game", required=True)
        o.add_argument("--policy", required=True, help="JSON with pi1, pi2")
        if needs_tau:
            o.add_argument("--tau", type=float, required=True)
        else:
            o.add_argument("--tol", type=float, default=None,
                           help="stochastic games only: ng is certified within "
                                "tol (default 1e-6)")
    on = orc.add_parser("nashdist", help="Nash distribution fixed point")
    on.add_argument("--game", required=True)
    on.add_argument("--tau", type=float, required=True)
    on.add_argument("--tol", type=float, default=1e-10)
    on.add_argument("--damping", type=float, default=0.5)
    on.add_argument("--max-iters", type=int, default=100_000)

    p = sub.add_parser("sweep", help="run a sweep experiment from a full config")
    p.add_argument("--config", required=True, help="experiment JSON with sweep axes")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_experiment(args)
    except (ZsdynError, OSError, ValueError) as exc:  # ValueError: a bad numeric argument
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
