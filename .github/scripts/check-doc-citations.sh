#!/usr/bin/env bash
# Fails when a citation of DESIGN.md or EXPERIMENTS.md names a section,
# ledger or ledger row that does not exist, and when the two files
# together pass 1,300 lines: a change adds a ledger row, not a section.
#
# Checked in the Go sources, .github/, ROADMAP.md, .claude/skills/ and
# the two files themselves (comment markers and line breaks are ignored,
# so a citation may wrap):
#   - every label of capital letters after a section sign is an
#     EXPERIMENTS.md label: a heading other than a ledger's names it, or
#     a ledger row starts with it;
#   - the numbers after "DESIGN.md" are "## N." headings of DESIGN.md;
#   - a ledger named after "EXPERIMENTS.md" or before a label is a
#     "## <Name> ledger" heading, and a heading quoted after either file
#     ('EXPERIMENTS.md, "Profiling"') begins a heading of that file.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

max_lines=1300
lines=$(cat DESIGN.md EXPERIMENTS.md | wc -l)
status=0
if [ "$lines" -gt "$max_lines" ]; then
  echo "DESIGN.md + EXPERIMENTS.md are $lines lines, over $max_lines: add a ledger row, not a section" >&2
  status=1
fi

self=.github/scripts/check-doc-citations.sh
mapfile -t files < <(git ls-files --cached --others --exclude-standard -- '*.go' .github ROADMAP.md .claude/skills DESIGN.md EXPERIMENTS.md |
  grep -vxF "$self")

perl -CSD -Mutf8 -e '
  use strict; use warnings;
  sub slurp { local $/; open(my $f, "<:encoding(UTF-8)", $_[0]) or die "$_[0]: $!\n"; return scalar <$f>; }
  my $design = slurp("DESIGN.md");
  my $exp = slurp("EXPERIMENTS.md");
  my (%sec, %label, %ledger, %heading);
  $sec{$1} = 1 while $design =~ /^## (\d+)\./mg;
  for my $doc (["DESIGN.md", $design], ["EXPERIMENTS.md", $exp]) {
    $heading{$doc->[0]}{$1} = 1 while $doc->[1] =~ /^#+ +(.+)$/mg;
  }
  for my $h (keys %{$heading{"EXPERIMENTS.md"}}) {
    if ($h =~ /^([\w-]+) ledger\b/i) { $ledger{lc $1} = 1; next; }
    $label{$1} = 1 while $h =~ /§([A-Z]+)\b/g;
  }
  $label{$1} = 1 while $exp =~ /^\| §([A-Z]+) \|/mg;
  my $list = qr/§[A-Z0-9]+(?:\x27s)?(?:(?:,\s*|\s+and\s+|\s*[–\/]\s*)§[A-Z0-9]+(?:\x27s)?)*/;
  my $bad = 0;
  for my $file (@ARGV) {
    my $text = slurp($file);
    $text =~ s{^[ \t]*(?://+|#+)[ \t]?}{}mg;
    $text =~ s/\s+/ /g;
    my @miss;
    while ($text =~ /§([A-Z]+)\b/g) { push @miss, "EXPERIMENTS.md §$1" unless $label{$1}; }
    while ($text =~ /DESIGN\.md(?:\x27s)?,? ($list)/g) {
      my $l = $1;
      while ($l =~ /§(\d+)/g) { push @miss, "DESIGN.md §$1" unless $sec{$1}; }
    }
    while ($text =~ /EXPERIMENTS\.md(?:\x27s)?,? ([a-z-]+)(?: and ([a-z-]+))? ledgers?\b/gi) {
      for my $n (grep { defined } ($1, $2)) { push @miss, "EXPERIMENTS.md $n ledger" unless $ledger{lc $n}; }
    }
    while ($text =~ /\b([a-z-]+) ledger,? §[A-Z]/gi) { push @miss, "EXPERIMENTS.md $1 ledger" unless $ledger{lc $1}; }
    while ($text =~ /((?:DESIGN|EXPERIMENTS)\.md),? "([^"]+)"/g) {
      my ($doc, $q) = ($1, $2);
      push @miss, "$doc \"$q\"" unless grep { index($_, $q) == 0 } keys %{$heading{$doc}};
    }
    my %seen;
    for (grep { !$seen{$_}++ } @miss) { print STDERR "$file: cites $_, which does not exist\n"; $bad = 1; }
  }
  exit $bad;
' "${files[@]}" || status=1

exit $status
