"""Experiment command line.

Each subcommand runs one named scenario (or `all` for every one), printing
one PASS/FAIL line per check and writing CSV artifacts to the output
directory.  Exit status: 0 when every check passes, 2 when any check fails,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import sys

import click

from .errors import BesselWeightsError, ConfigError
from .experiments import SCENARIOS, Verdict, load_config, load_default_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _run_one(scenario: str, config_path, out_dir, seed) -> Verdict:
    runner, _ = SCENARIOS[scenario]
    if config_path:
        cfg = load_config(scenario, config_path, out_dir, seed)
    else:
        cfg = load_default_config(scenario, out_dir, seed)
    return runner(cfg)


def _run_and_exit(scenarios, config_path, out_dir, seed) -> None:
    """Run the scenarios, print their check lines, and exit with the status;
    a configuration or runtime error prints one line and exits 1."""
    try:
        verdicts = [_run_one(n, config_path, out_dir, seed) for n in scenarios]
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    except BesselWeightsError as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    failed = False
    for v in verdicts:
        for line in v.lines():
            click.echo(line)
        failed |= not v.passed
    sys.exit(EXIT_CHECK_FAILED if failed else EXIT_OK)


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="scenario config file (flat key=value INI), laid over the shipped one")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default="results",
                      help="output directory for CSV artifacts")(fn)
    fn = click.option("--seed", type=int, default=None, help="override the config seed")(fn)
    return fn


@click.group(invoke_without_command=True)
@click.option("--list", "list_scenarios", is_flag=True, default=False,
              help="print scenario names and what each checks, then exit")
@click.pass_context
def main(ctx, list_scenarios):
    """Numerical verification experiments for weighted estimates on the
    Bessel half-line."""
    if list_scenarios:
        for name, (_, desc) in SCENARIOS.items():
            click.echo(f"{name}: {desc}")
        ctx.exit(EXIT_OK)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(EXIT_ERROR)


def _make_command(scenario_name: str):
    @main.command(name=scenario_name, help=SCENARIOS[scenario_name][1])
    @_common_options
    def _cmd(config_path, out_dir, seed):
        _run_and_exit((scenario_name,), config_path, out_dir, seed)

    return _cmd


for _name in SCENARIOS:
    _make_command(_name)


@main.command(name="all", help="run every scenario")
@_common_options
def run_all(config_path, out_dir, seed):
    if config_path:
        click.echo("`all` uses the shipped per-scenario configs; --config is "
                   "only valid for single scenarios", err=True)
        sys.exit(EXIT_ERROR)
    _run_and_exit(SCENARIOS, None, out_dir, seed)


if __name__ == "__main__":
    main()
