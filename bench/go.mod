module splash2/bench

go 1.22

require splash2 v0.0.0

replace splash2 => ../
