"""The subcommands' bodies, one module each, named after its command.

Each module defines `run(args, outdir)`, which takes the parsed
arguments and the output directory, writes the command's own files
there and returns `(report_name, lines, settings)`: the report's file
name, its lines and the resolved settings.  `fibersdc.cli.main` imports
the invoked command's module by name after parsing, creates the output
directory, and writes the report and the manifest once the body
returns, so a failed run leaves no report.  A process compiles and loads
one command body and the layers that command runs, and no other.
"""
