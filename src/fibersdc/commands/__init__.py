"""The subcommands' bodies, one module each, named after its command.

Each module defines `run(args)`, which takes the parsed arguments and
returns the exit code.  `fibersdc.cli.main` imports the invoked
command's module by name after parsing, so a process compiles and loads
one command body and the layers that command runs, and no other.
"""
