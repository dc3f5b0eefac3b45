"""Retweet-network polarisation and hashtag-hijacking analysis toolkit."""
