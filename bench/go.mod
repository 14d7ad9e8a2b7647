module drp/bench

go 1.22

require drp v0.0.0

replace drp => ../
