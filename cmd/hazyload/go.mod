module hazy/cmd/hazyload

go 1.24

require hazy v0.0.0

replace hazy => ../..
